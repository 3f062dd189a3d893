"""One-plane grid numbers read the plane kernel in the (F, G) split basis.

On the plane of I every slice regular f is F + G J with F, G holomorphic,
so |f|^2 = |F|^2 + |G|^2 there, and a multiplier e^{I theta} acts as the
scalar e^{i theta} on both.  ``spaces._multiplier_norm`` reads every
one-plane grid number (norms, norm reports, operator errors, moduli) from
the kernel on those 2 complex columns.  The oracle,
``conftest.four_column_norm``, runs the kernel on the 4 real components,
lifts them and takes their size; the two agree within 4 ulps.
"""

import numpy as np
import pytest

from slicefock import series, spaces
from slicefock.approx import (
    ModulusQuery,
    _difference_multipliers,
    modulus,
    operator_error,
    verify_vdp,
)
from slicefock.operators import fejer_op
from slicefock.quadrature import slice_grid, volume_grid
from slicefock.quaternion import UNIT_I, ImaginaryUnit
from slicefock.series import exp_series, from_generator, random_series
from slicefock.spaces import NormSpec, _real_multipliers, norm, norm_report, prepared_for_spec
from conftest import four_column_norm

#: 4 ulps relative.
ULPS = 4.0 * 2.0 ** -52

FAMILIES = {
    "exp": lambda: exp_series(),
    "gauss:0.25": lambda: from_generator("gauss:0.25"),
    "random:8": lambda: random_series(8, 11),
}
UNITS = {"i": UNIT_I,
         "seeded": ImaginaryUnit.from_vector(np.random.default_rng(4).normal(size=3))}
PS = (1.0, 1.5, 3.0, 7.0)
K, DELTA, H_GRID = 2, 0.5, 16


def one_plane(fn, unit, p):
    """f, its spec on the plane of ``unit``, the 32 x 64 grid and f prepared."""
    f = FAMILIES[fn]()
    spec = NormSpec("second", p, 1.0, slice_unit=UNITS[unit])
    grid = slice_grid(spec.scale, 32, 64)
    return f, spec, grid, prepared_for_spec(f, spec, grid)


def fejer_multipliers(n):
    m = np.append(1.0 - fejer_op(n).rho, 1.0)
    return lambda k: _real_multipliers(m[np.minimum(k, m.size - 1)])


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("unit", UNITS)
@pytest.mark.parametrize("fn", FAMILIES)
def test_one_plane_grid_numbers_match_the_four_column_oracle(fn, unit, p):
    f, spec, grid, prepared = one_plane(fn, unit, p)
    assert not spec.coefficient_sum
    steps = np.linspace(0.0, DELTA, H_GRID)[1:]
    query = ModulusQuery(K, DELTA, p, spec.alpha, spec.slice_unit, H_GRID)
    pairs = {
        "norm": (norm(f, spec, grid), four_column_norm(prepared, spec, grid)),
        "modulus": (modulus(f, query, grid), four_column_norm(
            prepared, spec, grid, lambda j: _difference_multipliers(K, steps, j), False)),
        "fejer error": (operator_error(fejer_op(8), prepared, spec, grid),
                        four_column_norm(prepared, spec, grid, fejer_multipliers(8))),
    }
    for what, (got, want) in pairs.items():
        assert want > 0.0
        assert abs(got - want) <= ULPS * want, (what, got, want, abs(got - want) / want)


def test_one_plane_numbers_read_two_split_columns_and_never_lift(monkeypatch):
    seen = []
    kernel = spaces._weighted_plane

    def spy(dirs, log_mags, grid, alpha):
        seen.append((dirs.shape[1], dirs.dtype))
        return kernel(dirs, log_mags, grid, alpha)

    def refuse(*args):
        raise AssertionError("a one-plane number lifted the 4 components")

    assert not hasattr(spaces, "_lift")
    monkeypatch.setattr(spaces, "_weighted_plane", spy)
    monkeypatch.setattr(series, "_lift", refuse)
    f, spec, grid, prepared = one_plane("random:8", "seeded", 1.5)
    norm(f, spec, grid)
    norm_report(f, spec, grid)
    operator_error(fejer_op(8), prepared, spec, grid)
    modulus(f, ModulusQuery(K, DELTA, 1.5, 1.0, spec.slice_unit, H_GRID), grid)
    verify_vdp(f, 4, 1.5, 1.0, spec.slice_unit, grid)     # its left side
    assert len(seen) == 1 + 2 + 1 + (H_GRID - 1) + 1
    assert set(seen) == {(2, np.dtype(complex))}


@pytest.mark.parametrize("spec", [
    NormSpec("second", 1.0, 1.0, sup_samples=8),
    NormSpec("second", 2.0, 1.0, sup_samples=8),
    NormSpec("first", 1.0, 1.0),
    NormSpec("first", 2.0, 1.0),
    NormSpec("first", 4.0, 1.0),
], ids=["sup:8-p1", "sup:8-p2", "first-p1", "first-p2", "first-p4"])
def test_a_complex_multiplier_off_one_plane_is_refused(spec):
    grid = slice_grid(spec.scale, 24, 48) if spec.kind == "second" \
        else volume_grid(spec.scale, 12, 12, 8)
    prepared = prepared_for_spec(exp_series(), spec, grid)
    with pytest.raises(ValueError, match=f"not on the {spec.slice_label() or 'first-kind'} "):
        spaces._multiplier_norm(prepared, spec, grid,
                                lambda j: _difference_multipliers(1, [0.3], j))
    # real multipliers are read on every plane
    assert spaces._multiplier_norm(prepared, spec, grid, fejer_multipliers(8))[0] > 0.0
