"""The closed-form pointwise paths against the loops they replaced.

* ``spaces.log_max_modulus`` reads every sampled unit from one circle
  evaluation through |f|^2 = A + u.w; the oracle evaluates each unit's
  circle separately (``_log_abs_on_circle``).  Agreement is measured against
  the term scale sum_k |a_k| r^k at the radius.
* ``operators.multipliers`` and ``jackson_op`` take exact Fourier
  coefficients from a convolution of the Fejer triangle; the oracle is the
  dense cosine sum against the kernel on an alias-safe grid.
* ``kernels.fit_with_sections`` builds its Gram in one broadcast product and
  the kernel-section generator is a closed form; the oracles are the
  per-pair Gram loop and the ``Quaternion`` recursion.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from slicefock import operators
from slicefock.errors import ConditioningError
from slicefock.kernels import SectionFit, fit_with_sections, kernel_section
from slicefock.quadrature import circle_nodes
from slicefock.quaternion import (
    ImaginaryUnit,
    Quaternion,
    left_mult_matrix,
    quat_conj_array,
    quat_mul_array,
    sphere_grid,
)
from slicefock.series import (
    _log_abs_on_circle,
    _row_norms,
    exp_series,
    extended,
    from_generator,
    prepared_for_radius,
    random_series,
    zero_series,
)
from slicefock.approx import parseval_log_weights
from slicefock.spaces import log_max_modulus, order_type

TOL = 1e-12

CUSTOM_UNITS = tuple(ImaginaryUnit.from_vector(v) for v in
                     ([0.3, -1.0, 2.0], [0.0, 0.0, -1.0], [-1.0, 0.2, 0.1]))

# radii up to where each family's tail is certified under the degree cap
FAMILIES = {
    "exp": (lambda: exp_series(), (0.0, 0.5, 3.0, 40.0, 60.0)),
    "gauss:0.25": (lambda: from_generator("gauss:0.25"), (0.0, 1.0, 6.0, 14.0)),
    "kernel-section": (lambda: from_generator(
        "kernel-section:0.6,-0.4,1.1,0.3,1.0"), (0.0, 2.0, 40.0, 60.0)),
    "random:8:7": (lambda: random_series(8, 7), (0.0, 0.7, 1e2, 1e4, 1e8)),
}


# ---------------------------------------------------------------------------
# log max modulus

def loop_log_max_modulus(f, radius, units=None, n_theta=64):
    """The per-unit loop: one circle evaluation per sampled unit."""
    units = units if units is not None else sphere_grid(8)
    fe, _ = prepared_for_radius(f, radius)
    thetas = np.linspace(0.0, math.pi, n_theta)
    best = -math.inf
    for unit in units:
        best = max(best, float(np.max(_log_abs_on_circle(fe, unit, radius,
                                                          thetas))))
    return best


def log_term_scale(f, radius):
    """log sum_k |a_k| r^k for f prepared at the radius."""
    fe, _ = prepared_for_radius(f, radius)
    mags = _row_norms(fe.coeffs)
    k = np.arange(mags.size)
    with np.errstate(divide="ignore"):
        logs = np.log(mags) + (k * math.log(radius) if radius > 0.0 else
                               np.where(k == 0, 0.0, -np.inf))
    top = float(np.max(logs))
    return top + math.log(float(np.sum(np.exp(logs - top))))


@pytest.mark.parametrize("units", [None, CUSTOM_UNITS], ids=["grid8", "custom"])
@pytest.mark.parametrize("n_theta", [1, 2, 7, 64])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_log_max_modulus_matches_unit_loop(name, n_theta, units):
    make, radii = FAMILIES[name]
    f = make()
    for r in radii:
        got = log_max_modulus(f, r, units, n_theta)
        want = loop_log_max_modulus(f, r, units, n_theta)
        scale = log_term_scale(f, r)
        assert abs(math.exp(got - scale) - math.exp(want - scale)) <= TOL, \
            (name, r, got, want)


def test_log_max_modulus_edge_samples():
    f = random_series(8, 7)
    assert log_max_modulus(f, 2.0, [], 8) == -math.inf
    assert log_max_modulus(zero_series(), 2.0) == -math.inf
    for fn in (log_max_modulus, loop_log_max_modulus):
        with pytest.raises(ValueError):
            fn(f, 2.0, None, 0)


def test_order_type_matches_unit_loop():
    f = from_generator("gauss:0.25")
    radii = np.geomspace(2.0, 16.0, 10)
    rep = order_type(f, radii)
    want = [loop_log_max_modulus(f, float(r)) for r in radii]
    np.testing.assert_allclose(rep.log_max_modulus, want, rtol=TOL, atol=TOL)
    assert rep.order_estimate == pytest.approx(2.0, abs=0.1)


# ---------------------------------------------------------------------------
# multiplier tables

def quadrature_multipliers(n, r):
    """Dense cosine sums of the normalized kernel on an alias-safe grid."""
    kernel = (operators.fejer_kernel(n) if r == 1 else
              operators.TrigKernel("jackson", n, r,
                                   operators.normalize_jackson(n, r)))
    deg = kernel.trig_degree
    nodes = max(8 * r * n, 4 * deg + 17)
    t = circle_nodes(nodes)
    kv = operators.kernel_eval(kernel, t)
    return (np.cos(np.outer(np.arange(deg + 1), t)) @ kv) * (2 * math.pi / nodes)


def quadrature_jackson_tau(n, m, p):
    r = operators.jackson_rule_r(m, p)
    kernel = operators.jackson_kernel(n, r)
    deg = kernel.trig_degree
    nodes = max(8 * r * n, 2 * (deg + deg * (m + 1)) + 17)
    t = circle_nodes(nodes)
    kv = operators.kernel_eval(kernel, t)
    tau = np.zeros(deg + 1)
    for k in range(1, m + 2):
        ang = np.outer(np.arange(deg + 1) * k, t)
        tau -= (-1.0) ** k * math.comb(m + 1, k) * (
            (np.cos(ang) @ kv) * (2 * math.pi / nodes))
    return tau


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 64, 128])
def test_multipliers_match_quadrature(n):
    for r in range(1, 10):
        kernel = (operators.fejer_kernel(n) if r == 1
                  else operators.jackson_kernel(n, r))
        got = operators.multipliers(kernel)
        want = quadrature_multipliers(n, r)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= TOL, (n, r)


def test_fejer_multipliers_are_the_triangle():
    for n in (1, 2, 5, 64):
        k = np.arange(n)
        assert np.array_equal(operators.multipliers(operators.fejer_kernel(n)),
                              (n - k) / n)


@pytest.mark.parametrize("n", [1, 2, 8, 64, 128])
@pytest.mark.parametrize("m,p", [(0, 1.0), (0, 2.0), (1, 2.0), (2, 3.0),
                                 (3, 4.0)])
def test_jackson_op_matches_quadrature(n, m, p):
    op = operators.jackson_op(n, m, p)
    want = quadrature_jackson_tau(n, m, p)
    assert op.degree_bound == want.size - 1
    assert np.max(np.abs(op.rho - want)) <= TOL


def test_jackson_op_large_n_stays_finite():
    assert operators.jackson_rule_r(3, 4.0) == 9
    op = operators.jackson_op(512, 3, 4.0)
    assert op.rho.size == 9 * 511 + 1
    assert np.all(np.isfinite(op.rho))
    assert op.rho[0] == pytest.approx(1.0, abs=1e-15)


def test_jackson_op_rejects_bad_degree_parameter():
    with pytest.raises(ValueError):
        operators.jackson_op(0, 0, 2.0)


@pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
def test_jackson_rejects_non_finite_p(p):
    with pytest.raises(ValueError):
        operators.jackson_rule_r(1, p)
    with pytest.raises(ValueError):
        operators.jackson_op(4, 1, p)
    with pytest.raises(ValueError):
        operators.degree_bound("jackson", 4, 1, p)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_degree_bound_matches_constructors(n):
    assert operators.degree_bound("taylor", n) == n
    assert operators.fejer_op(n).degree_bound == operators.degree_bound("fejer", n)
    assert operators.vdp_op(n).degree_bound == operators.degree_bound("vdp", n)
    for m, p in [(0, 1.0), (1, 2.0), (3, 4.0)]:
        op = operators.jackson_op(n, m, p)
        assert op.degree_bound == operators.degree_bound("jackson", n, m, p)
        assert op.degree_bound == op.rho.size - 1
    with pytest.raises(ValueError):
        operators.degree_bound("cesaro", n)


# ---------------------------------------------------------------------------
# kernel sections

def recursion_section_coeffs(q0, alpha, degree):
    """a_k = alpha^k conj(q0)^k / k! by the Quaternion product recursion."""
    conj = q0.conjugate()
    acc = Quaternion(1.0)
    out = [acc.to_array()]
    for k in range(1, degree + 1):
        acc = acc * conj * (alpha / k)
        out.append(acc.to_array())
    return np.array(out)


SECTION_CENTERS = [
    Quaternion(0.3, -0.2, 0.5, 0.1),
    Quaternion(),
    Quaternion(-1.5),
    Quaternion(2.0, 1.0, -3.0, 0.5),
    Quaternion(0.0, 0.0, 0.0, 4.0),
    Quaternion(1e-3),
]


@pytest.mark.parametrize("alpha", [1.0, 2.0, -0.7])
@pytest.mark.parametrize("q0", SECTION_CENTERS, ids=str)
def test_section_coefficients_match_recursion(q0, alpha):
    for degree in (0, 1, 24, 300, 512):
        got = kernel_section(q0, alpha, degree).coeffs
        want = recursion_section_coeffs(q0, alpha, degree)
        rows = _row_norms(want)
        err = np.max(np.abs(got - want), axis=1)
        assert np.all(err <= TOL * rows + 1e-290), (degree, np.max(err / rows))


def loop_fit(f, centers, alpha, cond_limit=1e12):
    """The per-pair Gram loop."""
    sections = [kernel_section(c, alpha) for c in centers]
    deg = max([parseval_log_weights(s, alpha)[0].degree for s in sections]
              + [f.degree, parseval_log_weights(f, alpha)[0].degree])
    fe = extended(f, deg)
    smats = np.stack([extended(s, deg).coeffs for s in sections])
    k = np.arange(deg + 1)
    weights = np.exp(gammaln(k + 1.0) - k * math.log(alpha))
    n = len(centers)
    gram = np.zeros((4 * n, 4 * n))
    rhs = np.zeros(4 * n)
    for i in range(n):
        rhs[4 * i: 4 * i + 4] = np.sum(
            weights[:, None] * quat_mul_array(quat_conj_array(smats[i]),
                                              fe.coeffs), axis=0)
        for j in range(n):
            gij = np.sum(weights[:, None] *
                         quat_mul_array(quat_conj_array(smats[i]), smats[j]),
                         axis=0)
            gram[4 * i: 4 * i + 4, 4 * j: 4 * j + 4] = \
                left_mult_matrix(Quaternion.from_array(gij))
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > cond_limit:
        raise ConditioningError("oracle: ill-conditioned", condition=cond)
    sol = np.linalg.solve(gram, rhs)
    combo = sum(quat_mul_array(smats[i], np.broadcast_to(sol[4 * i: 4 * i + 4],
                                                         (deg + 1, 4)))
                for i in range(n))
    resid = fe.coeffs - combo
    resid_sq = float(np.sum(weights * np.sum(resid ** 2, axis=1)))
    return SectionFit(tuple(Quaternion.from_array(sol[4 * i: 4 * i + 4])
                            for i in range(n)),
                      math.sqrt(max(resid_sq, 0.0)), cond)


@pytest.mark.parametrize("count", [1, 2, 4, 8])
@pytest.mark.parametrize("fn", ["exp", "random"])
def test_fit_matches_pair_loop(fn, count):
    rng = np.random.default_rng(100 + count)
    f = exp_series() if fn == "exp" else random_series(8, 5)
    centers = [Quaternion(*rng.uniform(-1.0, 1.0, size=4)) for _ in range(count)]
    got = fit_with_sections(f, centers, 1.0)
    want = loop_fit(f, centers, 1.0)
    size = math.sqrt(float(np.sum(_row_norms(extended(f, 60).coeffs) ** 2
                                  * np.exp(gammaln(np.arange(61) + 1.0)))))
    slack = max(TOL, want.condition * np.finfo(float).eps)
    assert abs(got.residual - want.residual) <= slack * size
    assert got.condition == pytest.approx(want.condition, rel=1e-8)
    got_sol = np.concatenate([c.to_array() for c in got.coefficients])
    want_sol = np.concatenate([c.to_array() for c in want.coefficients])
    assert np.max(np.abs(got_sol - want_sol)) <= \
        slack * 10 * max(1.0, np.max(np.abs(want_sol)))


def test_fit_with_zero_and_negative_real_centers():
    centers = [Quaternion(), Quaternion(-0.8), Quaternion(0.2, 0.5, -0.3, 0.1)]
    f = random_series(6, 3)
    got = fit_with_sections(f, centers, 1.5)
    want = loop_fit(f, centers, 1.5)
    assert got.residual == pytest.approx(want.residual, rel=1e-10, abs=1e-12)
    for a, b in zip(got.coefficients, want.coefficients):
        assert (a - b).norm() <= 1e-10 * max(1.0, b.norm())

