"""The certified Newton solve of the weighted plane L^p best approximation.

An independent oracle (scipy BFGS on the same discretized objective, with
its own residual and gradient code) checks the minimum; every result must
carry a lower bound that satisfies the solver's stop rule.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from slicefock import approx
from slicefock.approx import _newton_system, _polar_columns, best_approx_lp, verify_vdp
from slicefock.errors import ConditioningError, SolverError
from slicefock.quadrature import slice_grid, slice_points, volume_grid
from slicefock.quaternion import ImaginaryUnit, UNIT_I, left_mult_matrix
from slicefock.series import (
    eval_on_slice,
    exp_series,
    gauss_series,
    random_series,
    taylor_truncate,
)
from slicefock.spaces import (
    NORM_TAIL_BUDGET,
    NormSpec,
    _plane_splits,
    norm,
    prepared_for_grid,
)

SEEDED_UNIT = ImaginaryUnit.from_vector(np.random.default_rng(11).normal(size=3))
FAMILIES = {
    "exp": exp_series(),
    "gauss:0.25": gauss_series(0.25),
    "random": random_series(6, 2024),
}


def bfgs_minimum(f, n, p, alpha, unit, grid):
    """min over P of sum mu |f - P|^p on the grid nodes, by BFGS in
    coefficients scaled by the weighted size of each monomial."""
    fe = prepared_for_grid(f, alpha, grid)[0]
    z, w = slice_points(grid)
    mu = alpha * p / (2 * math.pi) * w * np.exp(-0.5 * p * alpha * np.abs(z) ** 2)
    fv = eval_on_slice(fe, unit, z)          # Horner, not the grid's FFT
    powers = z[:, None] ** np.arange(n + 1)
    scale = np.sqrt(mu @ np.abs(powers) ** 2)
    powers = powers / scale
    lm = left_mult_matrix(unit.as_quaternion()).T

    def residual(x):
        c = x.reshape(n + 1, 4)
        return fv - (powers.real @ c + powers.imag @ (c @ lm))

    def objective(x):
        r = residual(x)
        size = np.sqrt(np.sum(r * r, axis=1))
        grad_rows = (p * mu * size ** (p - 2.0))[:, None] * r
        grad = -(powers.real.T @ grad_rows - powers.imag.T @ (grad_rows @ lm))
        return float(mu @ size ** p), grad.ravel()

    start = taylor_truncate(fe, n).coeffs * scale[:, None]
    res = minimize(objective, start.ravel(), jac=True, method="BFGS",
                   options={"gtol": 1e-13, "maxiter": 20000})
    return objective(res.x)[0] ** (1.0 / p)


def assert_certified(res, f, p, alpha, unit, grid, tol=1e-8, size=None):
    if size is None:
        size = norm(f, NormSpec("second", p, alpha, slice_unit=unit), grid)
    assert res.lower is not None
    assert res.lower <= res.value
    assert res.value - res.lower <= tol * res.value + \
        min(tol, NORM_TAIL_BUDGET) * size * (1 + 1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_matches_bfgs_oracle(name, p):
    f = FAMILIES[name]
    grid = slice_grid(p / 2.0, 16, 32)
    for unit in (UNIT_I, SEEDED_UNIT):
        res = best_approx_lp(f, 3, p, 1.0, unit, grid=grid)
        want = bfgs_minimum(f, 3, p, 1.0, unit, grid)
        assert res.value == pytest.approx(want, rel=1e-7)
        assert res.lower <= want * (1.0 + 1e-12)
        assert_certified(res, f, p, 1.0, unit, grid)


@pytest.mark.parametrize("p", [1.0, 1.2, 2.0, 3.0])
def test_result_carries_certificate(p):
    grid = slice_grid(p / 2.0, 24, 48)
    for name, f in FAMILIES.items():
        res = best_approx_lp(f, 4, p, 1.0, SEEDED_UNIT, grid=grid)
        assert res.method == "descent"
        assert_certified(res, f, p, 1.0, SEEDED_UNIT, grid)


def test_p1_values_at_or_below_certified_minima():
    # the descent this solver replaced stopped 3-4 % above these minima
    grid = slice_grid(0.5, 24, 48)
    assert best_approx_lp(exp_series(), 2, 1.0, 1.0, grid=grid).value <= 0.652986
    assert best_approx_lp(exp_series(), 4, 1.0, 1.0, grid=grid).value <= 0.159418


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_polynomial_within_degree_stops_at_once(p):
    f = random_series(5, 77)
    grid = slice_grid(p / 2.0, 24, 48)
    size = norm(f, NormSpec("second", p, 1.0), grid)
    for n in (5, 7):
        res = best_approx_lp(f, n, p, 1.0, grid=grid, max_iter=3)
        assert res.value <= 1e-10 * size


def test_gauss_high_degree_p1_certifies_at_default_tol():
    f = gauss_series(0.25)
    grid = slice_grid(0.5, 24, 48)
    res = best_approx_lp(f, 16, 1.0, 1.0, grid=grid)
    assert_certified(res, f, 1.0, 1.0, UNIT_I, grid)
    assert res.value <= 0.0020236


@pytest.mark.parametrize("name,n,p,unit", [
    ("exp", 4, 1.0, UNIT_I),
    ("gauss:0.25", 8, 3.0, SEEDED_UNIT),
    ("random", 3, 1.5, SEEDED_UNIT),
])
def test_minimizer_reproduces_value_through_norm(name, n, p, unit):
    f = FAMILIES[name]
    grid = slice_grid(p / 2.0, 24, 48)
    res = best_approx_lp(f, n, p, 1.0, unit, grid=grid)
    fe = prepared_for_grid(f, 1.0, grid)[0]
    got = norm(fe - res.minimizer, NormSpec("second", p, 1.0, slice_unit=unit),
               grid)
    assert got == pytest.approx(res.value, rel=1e-10)


def test_vdp_report_carries_the_lower_bound():
    grid = slice_grid(0.5, 24, 48)
    rep = verify_vdp(exp_series(), 4, 1.0, 1.0, grid=grid)
    assert rep.best_approx_lower <= rep.best_approx
    assert rep.to_record()["best_approx_lower"] == rep.best_approx_lower
    assert verify_vdp(exp_series(), 4, 2.0, 1.0).to_record()[
        "best_approx_lower"] is None


def test_degree_beyond_the_grid_is_a_conditioning_error():
    # 4 nodes cannot separate 7 monomials
    with pytest.raises(ConditioningError):
        best_approx_lp(exp_series(), 6, 1.0, 1.0, grid=slice_grid(0.5, 2, 2))


def test_tiny_alpha_scales_the_monomials_before_the_gram():
    # at alpha = 1e-20 the nodes reach |z| ~ 1e11: z^16 is finite, but the
    # unscaled Gram of such columns overflowed; f has degree 8, so E_n = 0
    # for n >= 8.  z^30 and z^40 overflow there, and their columns' powers
    # of two leave the float range: both are built in log space
    f = random_series(8, 3)
    e_4 = best_approx_lp(f, 4, 1.5, 1e-20).value
    for n in (16, 30, 40):
        assert best_approx_lp(f, n, 1.5, 1e-20).value <= 1e-10 * e_4


@pytest.fixture
def newton_steps(monkeypatch):
    """Counts the descent's Newton steps: each solves one linear system."""
    count = [0]
    solve = np.linalg.solve

    def counted(*args, **kwargs):
        count[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return count


# Cases where a plain looser round stop (dec <= 1e-8 Psi_eps, or one tied
# to the gap alone) stalls at the step cap: eps is cut on every step while
# the dual bound lags.  Each with the steps a settle in every round takes.
SETTLED_STEPS = [
    ("exp", 2, (24, 48), 37),
    ("gauss:0.25", 2, (24, 48), 47),
    ("gauss:0.25", 16, (24, 48), 29),
    ("gauss:0.25", 4, (48, 96), 35),
]


@pytest.mark.parametrize("name,n,nodes,settled", SETTLED_STEPS)
def test_smoothing_path_certifies_where_a_looser_stop_stalls(newton_steps, name, n,
                                                             nodes, settled):
    f = FAMILIES[name]
    grid = slice_grid(0.5, *nodes)
    res = best_approx_lp(f, n, 1.0, 1.0, grid=grid)
    assert newton_steps[0] <= settled
    assert_certified(res, f, 1.0, 1.0, UNIT_I, grid)


def test_exp_p1_sharpens_eps_once_the_gap_meets_the_smoothing(newton_steps):
    # a settle in every round takes 28 steps here
    best_approx_lp(exp_series(), 4, 1.0, 1.0, grid=slice_grid(0.5, 24, 48))
    assert newton_steps[0] <= 9


def test_p_below_2_sweep_takes_at_most_60_percent_of_the_settled_steps(newton_steps):
    # a settle in every round takes 1,301 steps over these 120 cases
    families = [exp_series(), gauss_series(0.25),
                *(random_series(8, seed) for seed in (1, 2, 3))]
    total = 0
    for f in families:
        for p in (1.0, 1.2, 1.5):
            for nodes in ((24, 48), (48, 96)):
                grid = slice_grid(p / 2.0, *nodes)
                size = norm(f, NormSpec("second", p, 1.0), grid)
                for n in (2, 4, 8, 16):
                    newton_steps[0] = 0
                    res = best_approx_lp(f, n, p, 1.0, grid=grid)
                    total += newton_steps[0]
                    assert_certified(res, f, p, 1.0, UNIT_I, grid, size=size)
    assert total <= 0.6 * 1301
    assert total <= 508


@pytest.mark.parametrize("p,n,unit,settled", [
    (3.0, 4, SEEDED_UNIT, 2),
    (6.0, 1, UNIT_I, 5),
])
def test_smoothing_rule_is_inert_from_p_2(newton_steps, p, n, unit, settled):
    # eps = 0 from p = 2: every round settles, as before the gap rule
    best_approx_lp(exp_series(), n, p, 1.0, unit, grid=slice_grid(p / 2.0, 24, 48))
    assert newton_steps[0] == settled


def dense_newton_system(cols, r, se, mu, p):
    """Psi_eps's Hessian and gradient as J^T diag J and J^T (a r), J the real
    Jacobian of the residual's 4 real components per node in the real
    coordinates (component, degree, Re / Im) of the split coefficients, and
    diag the per-node 4 x 4 blocks a I + b r r^T."""
    v = cols.T                                       # (N, K)
    nodes, k = v.shape
    jac = np.zeros((nodes, 2, 2, 2, k, 2))           # (i, j, Re / Im, j', l, Re / Im)
    for j in range(2):                               # r_j = F_j - sum_l V_l c_jl
        jac[:, j, 0, j, :, 0] = -v.real
        jac[:, j, 0, j, :, 1] = v.imag
        jac[:, j, 1, j, :, 0] = -v.imag
        jac[:, j, 1, j, :, 1] = -v.real
    jac = jac.reshape(nodes, 4, 4 * k)
    rho = np.stack((r.real, r.imag), axis=-1).transpose(1, 0, 2).reshape(nodes, 4)
    a = p * mu * se ** (0.5 * p - 1.0)
    b = p * (p - 2.0) * mu * se ** (0.5 * p - 2.0)
    diag = a[:, None, None] * np.eye(4) + b[:, None, None] * rho[:, :, None] * rho[:, None, :]
    hess = np.einsum("iak,iab,ibl->kl", jac, diag, jac)
    grad = np.einsum("iak,ia->k", jac, a[:, None] * rho)
    return hess, grad


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("radial", [6, 16])
def test_newton_system_matches_the_dense_jacobian_form(radial, p):
    # 8 angles at n = 6: k + l runs to 12 and k - l to -6, so the gathered
    # frequencies wrap; the 13 rows of the k + l table lie above 6 radii
    # and below 16, so the angular FFT runs on either side of the table
    alpha, n = 1.0, 6
    grid = slice_grid(alpha * p / 2.0, radial, 8)
    plane = _polar_columns(grid, alpha, n)
    z, w = slice_points(grid)
    weight = np.exp(-0.5 * alpha * np.abs(z) ** 2)
    # the columns are the weighted monomials, each times a power of two
    scale = np.ldexp(1.0, -plane.exps)
    assert np.all(np.frexp(scale)[0] == 0.5)
    want = z[:, None] ** np.arange(n + 1) * weight[:, None] * scale
    assert np.max(np.abs(plane.cols.T - want)) <= 1e-14 * np.max(np.abs(want))
    # the residual pair of a random f on a seeded plane, G != 0
    f = random_series(8, 5)
    fg = (eval_on_slice(f, SEEDED_UNIT, z) @ _plane_splits((SEEDED_UNIT,))).T * weight
    assert np.max(np.abs(fg[1])) > 0.1 * np.max(np.abs(fg[0]))
    coeffs = np.random.default_rng(7).normal(size=(2, n + 1, 2)) @ [0.1, 0.1j]
    r = np.ascontiguousarray(fg - coeffs @ plane.cols)
    mu = alpha * p / (2.0 * math.pi) * w
    se = np.sum(np.square(np.abs(r)), axis=0) + (0.01 if p < 2.0 else 0.0)
    v = se ** (0.5 * p - 1.0)
    hess = _newton_system(plane, r, se, v, mu, p)
    # the gradient is -p times the dual vector's moments
    grad = (-p * ((mu * v * r) @ plane.cols_h)).view(float).ravel()
    want_hess, want_grad = dense_newton_system(plane.cols, r, se, mu, p)
    assert np.max(np.abs(hess - want_hess)) <= 1e-12 * np.max(np.abs(want_hess))
    assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))


def test_descent_reads_the_two_split_columns_and_never_lifts(monkeypatch):
    seen = []
    kernel = approx._weighted_plane

    def spy(dirs, log_mags, grid, alpha):
        seen.append((dirs.shape[1], dirs.dtype))
        return kernel(dirs, log_mags, grid, alpha)

    assert not hasattr(approx, "_lift")
    monkeypatch.setattr(approx, "_weighted_plane", spy)
    grid = slice_grid(0.75, 24, 48)
    res = best_approx_lp(random_series(6, 2024), 3, 1.5, 1.0, SEEDED_UNIT, grid=grid)
    assert seen == [(2, np.dtype(complex))]
    assert_certified(res, FAMILIES["random"], 1.5, 1.0, SEEDED_UNIT, grid)


@pytest.mark.parametrize("what,call", [
    ("a second-kind norm reads a 'slice' grid, not a 'volume' one",
     lambda: norm(exp_series(), NormSpec("second", 1.0, 1.0), volume_grid(0.5))),
    ("the plane descent reads a 'slice' grid, not a 'volume' one",
     lambda: best_approx_lp(exp_series(), 4, 1.0, 1.0, grid=volume_grid(0.5))),
    ("a first-kind norm reads a 'volume' grid, not a 'slice' one",
     lambda: norm(exp_series(), NormSpec("first", 1.0, 1.0), slice_grid(0.5))),
    ("a second-kind norm reads a 'slice' grid, not a 'volume' one",
     lambda: norm(exp_series(), NormSpec("second", 3.0, 1.0, sup_samples=8),
                  volume_grid(1.5))),
])
def test_a_grid_of_the_other_mode_is_refused(what, call):
    # each of these used to return a wrong number: 0.824 for 1.649, 0.040
    # for 0.159 and 3.297 for 1.649
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == what


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, True, "1e-8",
                                 slice_grid(0.5, 12, 24)])
def test_a_tolerance_that_is_not_a_positive_finite_float_is_refused(newton_steps, tol):
    # a grid passed in tol's slot used to fail inside on a comparison; 0, -1
    # and nan ran 200 Newton steps to a SolverError; inf returned the Taylor
    # start as certified
    with pytest.raises(ValueError, match="tol must be a positive finite float"):
        best_approx_lp(exp_series(), 4, 1.0, 1.0, UNIT_I, tol)
    assert newton_steps[0] == 0


@pytest.mark.parametrize("max_iter", [-1, 2.5, None, True])
def test_a_step_cap_that_is_not_a_nonnegative_integer_is_refused(newton_steps, max_iter):
    # -1 (or 2.5, which no step count equals) used to remove the cap
    with pytest.raises(ValueError, match="max_iter must be a nonnegative integer"):
        best_approx_lp(exp_series(), 4, 1.0, 1.0, max_iter=max_iter)
    assert newton_steps[0] == 0


def test_integer_tolerance_and_numpy_step_cap_are_accepted():
    grid = slice_grid(0.5, 24, 48)
    res = best_approx_lp(exp_series(), 4, 1.0, 1.0, UNIT_I, 1, grid, np.int64(50))
    assert res.lower <= res.value
    with pytest.raises(SolverError, match="after 0 Newton steps"):
        best_approx_lp(exp_series(), 4, 1.0, 1.0, grid=grid, max_iter=0)
