"""The smoothing-difference moment int (n |t| + 1)^s K_{n,r}(t) dt against
30-digit mpmath values of its product form (``scripts/moment_reference.py``
wrote ``moment_bound_mpmath.json``), its panel rule against numpy's, past
the float range, and refused where the operator is."""

import json
import math
import pathlib

import numpy as np
import pytest

from slicefock.errors import IntegrandOverflowError
from slicefock.operators import _panel_rule, jackson_op, moment_bound

PINNED = json.loads((pathlib.Path(__file__).parent / "moment_bound_mpmath.json").read_text())


def test_pinned_grid_is_the_whole_grid():
    keys = {(row["n"], row["m"], row["p"]) for row in PINNED["moments"]}
    assert PINNED["dps"] >= 30
    assert keys == {(n, m, p) for n in (1, 2, 3, 8, 64, 256, 1024) for m in (0, 1, 3)
                    for p in (1.0, 1.5, 2.0, 3.0, 8.0)}


def test_panel_rule_is_numpy_s_gauss_legendre_rule():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    u, w = _panel_rule()
    np.testing.assert_allclose(u, 0.5 * (nodes + 1.0), rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w, 0.5 * weights, rtol=1e-14)


def test_moment_bound_meets_mpmath():
    worst = max((abs(moment_bound(row["n"], row["m"], row["p"]) / float(row["value"]) - 1.0),
                 row["n"], row["m"], row["p"]) for row in PINNED["moments"])
    assert worst[0] <= 1e-12, worst


def test_moment_bound_past_the_float_range_is_finite_or_refused():
    # s = 104 and r = 53 at n = 1024: (n t + 1)^s and n^(2r) alone overflow
    try:
        value = moment_bound(1024, 12, 8.0)
    except IntegrandOverflowError:
        return
    assert math.isfinite(value) and value >= 1.0


@pytest.mark.parametrize("m,p,message", [
    (-1, 2.0, "difference order m must be nonnegative"),
    (-3, 2.0, "difference order m must be nonnegative"),
    (0, 0.5, "the smoothing-difference operator needs p >= 1"),
])
def test_moment_bound_refuses_what_the_operator_refuses(m, p, message):
    for call in (moment_bound, jackson_op):
        with pytest.raises(ValueError, match=message):
            call(8, m, p)
