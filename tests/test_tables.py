"""Generator rows, row norms and log k! are tables built once per series:
read-only, bounded, and giving the same numbers from a cold cache as from a
warm one."""

import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
from slicefock.kernels import fit_with_sections, kernel_section
from slicefock.quaternion import Quaternion
from slicefock.series import (
    DEGREE_CAP,
    ExpGenerator,
    _radius_certificate,
    _row_norms,
    exp_series,
    gauss_series,
    monomial,
    random_series,
)
from slicefock.spaces import _log_factorials, _log_sum, _parseval_terms, order_type

CENTERS = [Quaternion(0.3, -0.2, 0.5, 0.1), Quaternion(-0.4, 0.1, 0.0, 0.2),
           Quaternion(0.0, 0.6, -0.3, 0.0)]


def _numbers() -> list:
    """Every certificate that reads the tables, as a flat list of values."""
    out = []
    # exp at alpha = 0.01 stores rows as 0 and reads them from the closed form
    for f, alpha in ((exp_series(), 1.0), (exp_series(), 0.01),
                     (gauss_series(0.25), 0.6), (kernel_section(CENTERS[0], 1.0), 1.0)):
        out += list(_parseval_terms(f, alpha))
        out += list(_radius_certificate(f, 8.0))
    fit = fit_with_sections(exp_series(), CENTERS, 1.0)
    out += [b.to_array() for b in fit.coefficients] + [fit.residual, fit.condition]
    rep = order_type(gauss_series(0.25), np.geomspace(2.0, 16.0, 6))
    out += [rep.order_estimate, rep.type_estimate, rep.log_max_modulus]
    return [x.coeffs if hasattr(x, "coeffs") else np.asarray(x) for x in out]


def test_cold_and_warm_tables_give_bit_identical_numbers():
    ExpGenerator.series.cache_clear()
    _log_factorials.cache_clear()
    cold = _numbers()
    assert ExpGenerator.series.cache_info().hits > 0   # the second half ran warm
    warm = _numbers()
    assert len(cold) == len(warm)
    for a, b in zip(cold, warm):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_cached_rows_match_a_fresh_build():
    g = ExpGenerator((0.3, -0.2, 0.5, 0.1))
    f = g.series(102)
    assert g.series(102) is f
    assert np.array_equal(f.coeffs, g.coeffs(102))
    assert f.row_norms.tobytes() == _row_norms(g.coeffs(102)).tobytes()
    with np.errstate(divide="ignore"):
        assert f.log_row_norms.tobytes() == np.log(f.row_norms).tobytes()


def test_equal_generators_share_one_series():
    # -0.0 and 0.0 compare equal, so they are stored as one value
    a = ExpGenerator((-0.0, 0.0, -0.0, 0.0), stride=2)
    b = ExpGenerator((0.0, -0.0, 0.0, 0.0), stride=2)
    assert a == b and a.c == b.c
    assert all(np.copysign(1.0, x) == 1.0 for x in a.c)
    assert a.series(8) is b.series(8)


@pytest.mark.parametrize("name", ["coeffs", "row_norms", "log_row_norms"])
def test_cached_tables_are_read_only(name):
    table = getattr(exp_series(), name)
    with pytest.raises(ValueError):
        table[0] = 0.0
    assert getattr(exp_series(), name) is table


def test_log_factorial_table_is_read_only_and_covers_the_cap():
    _log_factorials.cache_clear()
    _parseval_terms(exp_series(), 1.0)
    table = _log_factorials(DEGREE_CAP + 1)
    assert _log_factorials.cache_info().hits >= 1
    assert table.size == DEGREE_CAP + 1 and table[0] == 0.0
    with pytest.raises(ValueError):
        table[1] = 1.0


def test_distinct_sections_keep_the_cache_bounded():
    info = ExpGenerator.series.cache_info()
    for i in range(1000):
        kernel_section(Quaternion(0.001 * i, 0.5, -0.25, 0.0), 1.0)
    assert ExpGenerator.series.cache_info().currsize <= info.maxsize
    # the worst case, a full cache of series at the degree cap with their
    # row norms and logs, stays under 2 MB
    ExpGenerator.series.cache_clear()
    held = 0
    for i in range(info.maxsize):
        f = ExpGenerator((1.0 + i, 0.5, 0.0, 0.0)).series(DEGREE_CAP)
        held += f.coeffs.nbytes + f.row_norms.nbytes + f.log_row_norms.nbytes
    assert ExpGenerator.series.cache_info().currsize == info.maxsize
    assert held < 2e6


def test_import_loads_no_scipy():
    code = ("import sys, slicefock; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


@pytest.mark.parametrize("alpha", [0.01, 1.0, 40.0])
def test_parseval_terms_carry_the_log_sum_of_their_terms(alpha):
    # the sum series._certified forms while certifying is, bit for bit,
    # spaces._log_sum of the terms, which every coefficient sum reads
    for f in (exp_series(), gauss_series(0.25), kernel_section(CENTERS[1], 1.0),
              random_series(8, 3), monomial(40)):
        if alpha < 0.5 and f.generator is not None and f.generator.type > 0.0:
            continue                  # outside the space of this weight
        terms = _parseval_terms(f, alpha)
        assert terms.log_sum.hex() == float(_log_sum(terms.logw)).hex()
        assert terms._replace(log_sum=None).log_total() == terms.log_total()
