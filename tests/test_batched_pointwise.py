"""Pointwise calls that certify f once and make one kernel call, against
the per-item loops they replaced.

* ``spaces.order_type`` certifies every radius in one pass and evaluates
  them together; the oracle is one certificate and one unit loop per
  radius (``loop_log_max_modulus``), a radius whose certificate fails
  left out.
* ``approx.finite_difference`` reads its k + 1 points from one plane sum;
  the oracle is one ``evaluate`` per point, as in the defining sum.
* ``kernels.fit_with_sections`` certifies f and only the section of
  largest |c| = alpha |q0|; the oracle certifies every section and takes
  the largest degree.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

import slicefock.series as series
import slicefock.spaces as spaces
from slicefock import cli, kernels
from slicefock.approx import finite_difference, least_squares
from slicefock.errors import TruncationError
from slicefock.kernels import fit_with_sections, kernel_section
from slicefock.quaternion import ImaginaryUnit, Quaternion
from slicefock.series import (
    _row_norms,
    embed_complex,
    evaluate,
    exp_series,
    extended,
    from_generator,
    monomial,
    prepared_for_radius,
    random_series,
)
from slicefock.spaces import _parseval_log_terms, _parseval_terms, log_max_modulus, order_type

from test_pointwise_kernels import TOL, loop_log_max_modulus

OFF_AXIS = ImaginaryUnit.from_vector([0.3, -1.0, 2.0])


# ---------------------------------------------------------------------------
# order and type

def loop_order_radii(f, radii):
    """The per-radius loop: (kept radii, their logs), each radius certified
    from f itself."""
    used, logs = [], []
    for r in radii:
        try:
            logs.append(loop_log_max_modulus(f, float(r)))
        except TruncationError:
            continue
        used.append(float(r))
    return np.array(used), np.array(logs)


def shuffled(radii, seed):
    return np.random.default_rng(seed).permutation(radii)


ORDER_CASES = {
    # exp's tail is certified up to r of about 94: the outer radii are skipped
    "exp-past-cap": (exp_series, shuffled(np.geomspace(1.0, 1e3, 40), 1)),
    "exp-sorted": (exp_series, np.geomspace(1.0, 1e3, 25)),
    "gauss:0.25": (lambda: from_generator("gauss:0.25"),
                   shuffled(np.geomspace(2.0, 40.0, 16), 2)),
    "kernel-section": (lambda: from_generator("kernel-section:0.6,-0.4,1.1,0.3,1.0"),
                       shuffled(np.geomspace(0.5, 200.0, 12), 3)),
    "random:8:7": (lambda: random_series(8, 7), shuffled(np.geomspace(1e2, 1e8, 12), 4)),
    "with-zero-and-repeats": (exp_series, np.array([5.0, 0.0, 2.0, 5.0, 30.0, 1.0, 200.0])),
}


@pytest.mark.parametrize("name", sorted(ORDER_CASES))
def test_order_type_keeps_the_radii_and_values_of_the_per_radius_loop(name):
    make, radii = ORDER_CASES[name]
    f = make()
    want_radii, want_logs = loop_order_radii(f, radii)
    rep = order_type(f, radii)
    assert np.array_equal(rep.radii, want_radii)
    np.testing.assert_allclose(rep.log_max_modulus, want_logs, rtol=TOL, atol=TOL)


def test_exp_past_the_degree_cap_skips_radii():
    # the case above must exercise the skip: some radii past r = 94 are left out
    _, radii = ORDER_CASES["exp-past-cap"]
    want_radii, _ = loop_order_radii(exp_series(), radii)
    assert 4 <= want_radii.size < radii.size
    assert np.array_equal(order_type(exp_series(), radii).radii, want_radii)


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_order_type_makes_one_polar_sum(monkeypatch):
    calls = count_calls(monkeypatch, spaces, "_polar_sum")
    order_type(from_generator("gauss:0.25"), shuffled(np.geomspace(2.0, 16.0, 10), 5))
    assert len(calls) == 1
    calls.clear()
    log_max_modulus(exp_series(), 7.0)
    assert len(calls) == 1


@pytest.mark.parametrize("radius", [-2.0, -1e-300, math.nan, math.inf, -math.inf])
def test_a_bad_radius_is_refused(radius):
    with pytest.raises(ValueError, match="radius"):
        log_max_modulus(monomial(3), radius)
    radii = np.append(np.geomspace(2.0, 16.0, 6), radius)
    with pytest.raises(ValueError, match="radius"):
        order_type(exp_series(), radii)


def test_radius_zero_is_a_radius():
    # the refusal stops below 0: f(0) = a_0, and -0.0 is 0
    for r in (0.0, -0.0):
        assert log_max_modulus(monomial(3), r) == -math.inf
        assert log_max_modulus(exp_series(), r) == 0.0


def test_a_thousand_radii_stay_within_four_mib(capsys):
    # the largest radius count the CLI accepts; exp keeps the radii whose
    # own certificate holds, blocks of radii bound the evaluation's memory
    tracemalloc.start()
    try:
        cli.main(["growth", "--fn", "exp", "--radii", "1000", "--r-min", "1",
                  "--r-max", "1e3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20
    radii = np.geomspace(1.0, 1e3, 1000)
    want = []
    for r in radii:
        try:
            prepared_for_radius(exp_series(), float(r))
        except TruncationError:
            continue
        want.append(float(r))
    assert json.loads(capsys.readouterr().out)["radii"] == want
    assert len(want) == 658


# ---------------------------------------------------------------------------
# finite differences

def loop_difference(f, k, h, z, unit):
    """sum_s (-1)^{k+s} C(k, s) f(z e^{u s h}), one ``evaluate`` per point."""
    unit = unit if unit is not None else series.slice_unit(z)[0]
    rot = embed_complex(complex(math.cos(h), math.sin(h)), unit)
    acc, power = np.zeros(4), Quaternion(1.0)
    for s in range(k + 1):
        acc += (-1.0) ** (k + s) * math.comb(k, s) * evaluate(f, z * power).to_array()
        power = power * rot
    return acc


def term_scale(f, radius):
    """sum_k |a_k| r^k for f prepared at the radius."""
    fe, _ = prepared_for_radius(f, radius)
    return float(np.sum(_row_norms(fe.coeffs) * radius ** np.arange(fe.degree + 1)))


DIFF_FUNCTIONS = {
    "exp": exp_series,
    "gauss:0.25": lambda: from_generator("gauss:0.25"),
    "random:8:11": lambda: random_series(8, 11),
}
DIFF_POINTS = (Quaternion(0.7, 0.2, -0.4, 0.3), Quaternion(-1.6, 0.0, 0.9, 0.0),
               Quaternion(1.3))


@pytest.mark.parametrize("unit", [None, OFF_AXIS], ids=["on-axis", "off-axis"])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(DIFF_FUNCTIONS))
def test_finite_difference_matches_the_per_point_sum(name, k, unit):
    f = DIFF_FUNCTIONS[name]()
    for z in DIFF_POINTS:
        for h in (0.05, 0.4, 2.5):
            got = finite_difference(f, k, h, z, unit).to_array()
            want = loop_difference(f, k, h, z, unit)
            atol = 1e-14 * 2 ** k * term_scale(f, abs(z))
            assert np.max(np.abs(got - want)) <= atol, (z, h, got, want)


def test_finite_difference_prepares_f_once(monkeypatch):
    calls = count_calls(monkeypatch, series, "prepared_for_radius")
    finite_difference(exp_series(), 3, 0.3, Quaternion(0.7, 0.2, -0.4, 0.3), OFF_AXIS)
    assert len(calls) == 1


def test_finite_difference_refuses_a_negative_order():
    with pytest.raises(ValueError, match="order"):
        finite_difference(exp_series(), -1, 0.3, Quaternion(0.7, 0.2))
    z = Quaternion(0.7, 0.2, -0.4, 0.3)          # k = 0 is f(z)
    np.testing.assert_allclose(finite_difference(exp_series(), 0, 0.3, z).to_array(),
                               evaluate(exp_series(), z).to_array(), rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# kernel-section fits

def per_section_fit(f, centers, alpha):
    """The fit with every section certified, the degree the largest any
    certificate reaches: (coefficients, residual, condition, the sections'
    certified degrees)."""
    sections = [kernel_section(c, alpha) for c in centers]
    terms = [_parseval_terms(g, alpha) for g in (f, *sections)]
    deg = max(t.series.degree for t in terms)
    half = 0.5 * _parseval_log_terms(0.0, deg + 1, alpha)

    def rows(g):
        g = extended(g, deg)
        return g.directions * np.exp(half + g.log_row_norms)[:, None]

    design = np.einsum("ikc,cab->kaib", np.stack([rows(s) for s in sections]),
                       kernels._LEFT_BASIS).reshape(4 * deg + 4, -1)
    sol, residual, cond = least_squares(design, rows(f).ravel())
    return sol, residual, cond, [t.series.degree for t in terms[1:]]


def centers_at(sizes, alpha, seed):
    """One center per size s in a seeded direction, alpha |q0| = s."""
    rng = np.random.default_rng(seed)
    out = []
    for s in sizes:
        v = rng.standard_normal(4)
        out.append(Quaternion(*(s / alpha * v / np.linalg.norm(v))))
    return out


FIT_CASES = [  # (alpha, alpha |q0| of each center)
    (2.0, (0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)),
    (2.0, (6.0, 0.1)),
    (2.0, (0.3, 2.5, 6.0)),
    (1.0, (0.1, 0.4)),
    (1.0, (2.5, 1.0)),
]


@pytest.mark.parametrize("case", range(len(FIT_CASES)))
@pytest.mark.parametrize("fn", ["exp", "random:8:5", "gauss:0.25"])
def test_fit_is_bit_identical_to_a_per_section_certificate(fn, case):
    alpha, sizes = FIT_CASES[case]
    f = exp_series() if fn == "exp" else (random_series(8, 5) if fn == "random:8:5"
                                           else from_generator(fn))
    centers = centers_at(sizes, alpha, seed=case)
    sol, residual, cond, degrees = per_section_fit(f, centers, alpha)
    got = fit_with_sections(f, centers, alpha)
    assert got.residual == residual
    assert got.condition == cond
    assert np.array_equal(np.concatenate([c.to_array() for c in got.coefficients]), sol)
    if len(sizes) > 2:
        assert len(set(degrees)) > 1     # the sections' certificates differ


def test_the_widest_section_sets_the_degree():
    # f's degree (8) is below the widest section's, so a fit certifying any
    # other section would stop short of the per-section degree
    alpha, sizes = FIT_CASES[0]
    centers = centers_at(sizes, alpha, seed=0)
    *_, degrees = per_section_fit(random_series(8, 5), centers, alpha)
    assert max(degrees) > max(8, degrees[0])


def test_fit_certifies_one_section(monkeypatch):
    calls = count_calls(monkeypatch, kernels, "_parseval_terms")
    f = exp_series()
    alpha, sizes = FIT_CASES[0]
    fit_with_sections(f, centers_at(sizes, alpha, seed=0), alpha)
    assert [args[0] is f for args in calls].count(False) == 1
    assert len(calls) == 2
