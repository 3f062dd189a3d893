"""Contract of the truncation certificate: the tail a certified series leaves
out, summed from the generator's closed form, is at most what the
certificate claims.

Two kinds of terms share the certificate: the radius terms |a_k| R^k of
``prepared_for_radius``, whose returned ``tail`` is relative to
max(1, sum of the stored terms), and the Parseval terms |a_k|^2 k! / alpha^k
of ``parseval_log_weights``, whose tail must stay below
``PARSEVAL_TAIL_TOL`` of the stored sum.  The true tail is summed over 400
terms past the returned degree from ``ExpGenerator.log_coeff``.  A
``TruncationError`` is an allowed answer; a certificate that understates
its tail is not.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slicefock.approx import PARSEVAL_TAIL_TOL, parseval_log_weights
from slicefock.errors import TruncationError
from slicefock.series import ExpGenerator, prepared_for_radius

#: Terms past the returned degree that make up the true tail.
TAIL_TERMS = 400
#: Rounding slack on the comparison of two sums.
REL = 1e-9
#: Smallest positive float.
TINY = 5e-324


def _log_sum(logs) -> float:
    logs = np.asarray([x for x in logs if x > -math.inf])
    if not logs.size:
        return -math.inf
    top = float(np.max(logs))
    return top + math.log(math.fsum(np.exp(logs - top)))


def _log_tail(log_term, degree: int) -> float:
    return _log_sum(log_term(k) for k in range(degree + 1, degree + 1 + TAIL_TERMS))


generators = st.builds(
    lambda c, stride: ExpGenerator(tuple(c), stride),
    st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4),
    st.sampled_from([1, 2]))
start_degrees = st.integers(0, 300)
settings_ = settings(max_examples=300, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])


@settings_
@given(g=generators, start=start_degrees,
       size=st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 150.0)))
def test_radius_tail_bounds_the_true_tail(g, start, size):
    # size = |c| R^s, at most 150
    radius = (size / g.size) ** (1.0 / g.stride) if g.size > 0.0 else size
    try:
        fe, tail = prepared_for_radius(g.series(start), radius)
    except TruncationError:
        return
    log_r = math.log(radius) if radius > 0.0 else -math.inf

    def log_term(k):
        lc = g.log_coeff(k)
        return lc + k * log_r if lc > -math.inf else -math.inf

    rows = np.sqrt(np.sum(fe.coeffs ** 2, axis=1))
    # at R = 0 the true tail is 0, whatever the (nan) stored sum reads
    with np.errstate(divide="ignore", invalid="ignore"):
        stored = _log_sum(np.log(rows) + np.arange(fe.degree + 1) * log_r)
    # a relative tail below the smallest float is returned as 0
    assert _log_tail(log_term, fe.degree) <= \
        math.log(max(tail, TINY)) + max(0.0, stored) + REL, (g, radius, fe.degree)


@settings_
@given(g=generators, start=start_degrees, alpha=st.floats(0.3, 4.0))
def test_parseval_tail_bounds_the_true_tail(g, start, alpha):
    if g.stride == 2 and 4.0 * g.size ** 2 / alpha ** 2 > 0.9:
        return
    try:
        fe, logw = parseval_log_weights(g.series(start), alpha)
    except TruncationError:
        return

    def log_term(k):
        lc = g.log_coeff(k)
        return 2.0 * lc + math.lgamma(k + 1.0) - k * math.log(alpha) \
            if lc > -math.inf else -math.inf

    true = _log_tail(log_term, fe.degree)
    assert true <= math.log(PARSEVAL_TAIL_TOL) + _log_sum(logw) + REL, \
        (g, alpha, fe.degree)
