"""The per-process store of f-independent tables (grids, operators,
multiplier images, the descent's basis): built once, read-only, bounded in
bytes, never keyed on f, and giving the same bits cold as warm."""

import numpy as np
import pytest

from slicefock import approx, memo
from slicefock.approx import ModulusQuery, best_approx_lp, jackson_sweep, modulus, vdp_sweep
from slicefock.errors import ConditioningError
from slicefock.operators import fejer_op, jackson_op, taylor_op, vdp_op
from slicefock.quadrature import QuadratureGrid, slice_grid, volume_grid
from slicefock.series import SliceSeries, exp_series, gauss_series, random_series
from slicefock.spaces import NormSpec, ParsevalTerms, Prepared, norm

GRID = (0.5, 24, 48)


def kept(builder_name):
    """The store's tables whose builder is named ``builder_name``."""
    return [t for (b, _), (t, _) in memo._STORE.tables.items() if b.__name__ == builder_name]


def test_the_descent_basis_is_built_once_for_two_functions(monkeypatch):
    approx._descent_basis.cache_clear()
    built = []
    columns = approx._polar_columns

    def spy(*args):
        built.append(args[1:])
        return columns(*args)

    monkeypatch.setattr(approx, "_polar_columns", spy)
    grid = slice_grid(*GRID)
    first = best_approx_lp(exp_series(), 6, 1.0, 1.0, grid=grid)
    second = best_approx_lp(random_series(8, 3), 6, 1.0, 1.0, grid=grid)
    assert built == [(1.0, 6)]
    assert first.value != second.value
    best_approx_lp(exp_series(), 6, 1.5, 1.0, grid=grid)       # another p: its own basis
    assert built == [(1.0, 6), (1.0, 6)]


def test_equal_grid_arguments_share_one_grid_and_a_hand_built_grid_works():
    grid = slice_grid(*GRID)
    assert slice_grid(*GRID) is grid
    assert volume_grid(1.0, 12, 12, 64) is volume_grid(1.0, 12, 12, 64)
    assert slice_grid(0.5, 24, 64) is not grid
    assert taylor_op(5) is taylor_op(5) and jackson_op(8, 1, 1.5) is jackson_op(8, 1, 1.5)
    hand = QuadratureGrid("slice", grid.scale, grid.radial_nodes, grid.radial_weights,
                          grid.angular_nodes, grid.angular_weights)
    assert hand != grid and len({hand, grid}) == 2          # identity, no array compare
    np.testing.assert_array_equal(hand.plane_weights, grid.plane_weights)
    f = exp_series()
    spec = NormSpec("second", 1.0, 1.0)
    assert norm(f, spec, hand) == norm(f, spec, grid)
    a = best_approx_lp(f, 4, 1.0, 1.0, grid=hand)
    b = best_approx_lp(f, 4, 1.0, 1.0, grid=grid)
    assert (a.value, a.lower) == (b.value, b.lower)


def test_every_kept_array_is_read_only():
    f = gauss_series(0.25)
    grid = slice_grid(*GRID)
    vdp_sweep(f, [2, 4], 1.0, 1.0, grid=grid)
    jackson_sweep(f, [2, 4], 1, 1.5, 1.0, grid=grid)
    jackson_sweep(f, [2, 4], 0, 2.0, 1.0)
    fejer_op(6)
    assert {"_tables", "_descent_basis", "_slice_grid", "_vdp_op", "_jackson_op",
            "_fejer_op", "_error_multipliers"} <= {b.__name__ for b, _ in memo._STORE.tables}
    arrays = [a for table, _ in memo._STORE.tables.values() for a in memo._arrays(table)]
    assert arrays
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 0.0


def test_nothing_is_keyed_on_f():
    f = exp_series()
    vdp_sweep(f, [2, 4], 1.0, 1.0, grid=slice_grid(*GRID))
    jackson_sweep(f, [2, 4], 1, 2.0, 1.0)

    def holds_f(x):
        if isinstance(x, (SliceSeries, ParsevalTerms, Prepared)):
            return True
        if isinstance(x, tuple):
            return any(holds_f(y) for y in x)
        return False

    assert not any(holds_f(key) for key in memo._STORE.tables)


def test_a_table_past_the_budget_is_not_kept():
    # 4,095 steps over f's 513 rows: three tables of about 50 MB in all
    query = ModulusQuery(k=1, delta=0.5, p=2.0, alpha=1.0, h_grid=4096)
    value = modulus(gauss_series(0.45), query)
    assert value > 0.0
    assert memo._STORE.held <= memo.MEMO_BYTES
    assert not any(t[0].shape[0] == 4095 for t in kept("_tables"))
    small = ModulusQuery(k=1, delta=0.5, p=2.0, alpha=1.0, h_grid=16)
    modulus(gauss_series(0.45), small)
    assert any(t[0].shape[0] == 15 for t in kept("_tables"))


def test_a_conditioning_error_is_raised_on_every_call():
    grid = slice_grid(0.5, 3, 4)
    for _ in range(2):
        with pytest.raises(ConditioningError):
            best_approx_lp(exp_series(), 12, 1.0, 1.0, grid=grid)
    assert not kept("_descent_basis") or all(
        b.plane.cols.shape[0] != 13 for b in kept("_descent_basis"))


def _bits(x):
    if isinstance(x, (list, tuple)):
        return [_bits(y) for y in x]
    if hasattr(x, "__dict__"):
        return {k: _bits(v) for k, v in vars(x).items()}
    if isinstance(x, np.ndarray):
        return x.tobytes()
    return float(x).hex() if isinstance(x, float) else x


def _numbers(capsys):
    f, g = exp_series(), random_series(8, 5)
    grid = slice_grid(*GRID)
    out = [vdp_sweep(f, [2, 4, 8], p, 1.0, grid=grid) for p in (1.0, 2.0, 4.0)]
    out += [jackson_sweep(g, [2, 4], 1, p, 1.0, grid=grid) for p in (1.5, 2.0)]
    out += [modulus(g, ModulusQuery(2, 0.4, p, 1.0)) for p in (1.0, 2.0, 6.0)]
    res = best_approx_lp(g, 5, 1.5, 1.0, grid=grid)
    out += [res.value, res.lower, res.minimizer.coeffs]
    from slicefock import cli
    for op in ("taylor", "fejer", "vdp", "jackson"):
        assert cli.main(["converge", "--fn", "gauss:0.25", "--operator", op, "--p", "1.5",
                         "--n-list", "2,4,8", "--quad-radial", "24", "--quad-angular", "48"]) == 0
        out.append(capsys.readouterr().out.splitlines()[1:])    # past the timestamp
    return _bits(out)


def test_cold_and_warm_tables_give_bit_identical_numbers(capsys):
    memo._STORE.clear()
    cold = _numbers(capsys)
    assert kept("_descent_basis") and kept("_tables")
    warm = _numbers(capsys)
    assert cold == warm
