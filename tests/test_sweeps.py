"""A sweep over n is one multiplier-image call with one value per group of
images (``spaces._multiplier_norm`` given a sequence of groups): an
operator error, a modulus's steps, E_n's tail at p = 2.  Each group's value
is the largest over its own images, charged against itself, and f's terms
are certified again at most once for the whole sweep, as deep as its
smallest group needs.

So the sweep's rows are the per-n numbers (``operator_error``,
``verify_vdp``, ``verify_jackson``): bit for bit where the sweep reads f's
terms at the depth the single call reads them, and within the two charges
where the sweep's certificate is the deeper one.  The backends: the plane
at p = 2 and 4, the plane grid at p = 1.5, the first kind at p = 2 and 4
and on the volume grid at p = 3, and the sup over 8 planes at p = 3.
"""

import math

import pytest

from slicefock import approx, cli, spaces
from slicefock.approx import (
    ModulusQuery,
    _error_images,
    _modulus_images,
    _tail_images,
    jackson_sweep,
    operator_error,
    verify_jackson,
    verify_vdp,
)
from slicefock.operators import fejer_op, jackson_op, taylor_op, vdp_op
from slicefock.quadrature import slice_grid, volume_grid
from slicefock.quaternion import UNIT_I
from slicefock.series import exp_series, from_generator
from slicefock.spaces import NORM_TAIL_BUDGET, NormSpec, prepared_for_spec

ALPHA = 1.0
NS = (2, 4, 8, 16, 32, 64)
#: (spec, grid nodes) of each backend; the grid is read at p = 1.5 and 3,
#: where the images past n = 32 need more radial nodes over the algebra and
#: over 8 planes than on one.
BACKENDS = {
    "second-p2": (NormSpec("second", 2.0, ALPHA), None),
    "second-p4": (NormSpec("second", 4.0, ALPHA), None),
    "second-p1.5": (NormSpec("second", 1.5, ALPHA), (24, 48)),
    "first-p2": (NormSpec("first", 2.0, ALPHA), None),
    "first-p4": (NormSpec("first", 4.0, ALPHA), None),
    "first-p3": (NormSpec("first", 3.0, ALPHA), (64, 32, 8)),
    "sup:8-p3": (NormSpec("second", 3.0, ALPHA, sup_samples=8), (48, 96)),
}
FUNCTIONS = {"gauss:0.25": lambda: from_generator("gauss:0.25"), "exp": lambda: exp_series()}


@pytest.fixture
def depth(monkeypatch):
    """The log tolerances f's terms are certified again at, call by call."""
    tols = []
    certify = spaces._parseval_terms

    def spy(f, alpha, log_tol=math.log(spaces.PARSEVAL_TAIL_TOL)):
        tols.append(log_tol)
        return certify(f, alpha, log_tol)

    monkeypatch.setattr(spaces, "_parseval_terms", spy)
    return tols


def setup(backend, fn):
    spec, nodes = BACKENDS[backend]
    grid = None if nodes is None else slice_grid(spec.scale, *nodes) if len(nodes) == 2 \
        else volume_grid(spec.scale, *nodes)
    f = FUNCTIONS[fn]()
    return f, spec, grid, prepared_for_spec(f, spec, grid)


def groups(backend, prepared, spec):
    """Every group of images a sweep over NS reads under ``spec``: the
    operator errors, and on one plane the order-2 moduli at step 1/n and,
    at p = 2, E_n's tails (complex multipliers act on one plane only)."""
    out = [_error_images(op(n), prepared) for op in (taylor_op, fejer_op, vdp_op)
           for n in NS]
    if spec.slice_unit is not None:
        out += [_modulus_images(ModulusQuery(2, 1.0 / n, spec.p, ALPHA)) for n in NS]
        out += [_error_images(jackson_op(n, 1, spec.p), prepared) for n in NS[:4]]
        if spec.p == 2.0:
            out += [_tail_images(n) for n in NS]
    return out


def agree(sweep, single, sweep_depth, single_depth, charges):
    """Bit for bit at one depth; else the sweep's certificate is the deeper
    and the two lie within their charges (and the unchanged rounding) of
    each other."""
    if sweep_depth == single_depth:
        return sweep == single
    return sweep_depth < single_depth and abs(sweep - single) <= (
        sum(charges) + 1e-15) * max(sweep, single)


@pytest.mark.parametrize("fn", FUNCTIONS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_each_group_of_a_sweep_is_its_single_call(backend, fn, depth):
    f, spec, grid, prepared = setup(backend, fn)
    images = groups(backend, prepared, spec)
    depth.clear()
    values, charges = spaces._multiplier_norm(prepared, spec, grid, *zip(*images))
    sweep_depth = min(depth, default=math.inf)
    assert len(depth) <= 1
    single_depths = []
    for value, charge, group in zip(values, charges, images):
        depth.clear()
        (v,), (c,) = spaces._multiplier_norm(prepared, spec, grid, *zip(group))
        single_depths.append(min(depth, default=math.inf))
        assert agree(value, v, sweep_depth, single_depths[-1], (charge, c))
        if sweep_depth == single_depths[-1]:
            assert charge == c
    # certified again only where a single call is, as deep as the deepest
    assert sweep_depth == min(single_depths)


def converge_rows(capsys, argv):
    assert cli.main(["converge", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()[2:]
    return [[float(x) if x else None for x in line.split(",")[1:]] for line in lines]


@pytest.mark.parametrize("fn", FUNCTIONS)
@pytest.mark.parametrize("backend,operators", [
    ("second-p2", ("taylor", "fejer", "vdp", "jackson")),
    ("second-p4", ("taylor", "fejer", "vdp", "jackson")),
    ("second-p1.5", ("fejer", "jackson")),
    ("first-p2", ("taylor", "fejer")),
    ("first-p4", ("taylor", "fejer")),
])
def test_converge_rows_are_the_per_n_numbers(capsys, depth, backend, operators, fn):
    f, spec, grid, prepared = setup(backend, fn)
    ns = NS if spec.p != 1.5 else NS[:3]
    argv = ["--fn", fn, "--p", repr(spec.p), "--kind", spec.kind,
            "--n-list", ",".join(map(str, ns))]
    if grid is not None:
        argv += ["--quad-radial", "24", "--quad-angular", "48"]
    # E_n's descent at p != 2 reads f on the grid, prepared once for the sweep
    on_grid = spaces.prepared_for_grid(f, ALPHA, slice_grid(spec.scale)) \
        if spec.p == 4.0 and spec.kind == "second" else None
    for operator in operators:
        depth.clear()
        rows = converge_rows(capsys, [*argv, "--operator", operator])
        sweep_depth = min(depth[1:], default=math.inf)       # past f's own certificate
        for n, row in zip(ns, rows):
            depth.clear()
            if operator in ("taylor", "fejer"):
                op = (taylor_op if operator == "taylor" else fejer_op)(n)
                want = [operator_error(op, prepared, spec, grid), None, None]
            elif operator == "vdp":
                rep = verify_vdp(f, n, spec.p, ALPHA, UNIT_I, grid, prepared, on_grid)
                want = [rep.lhs, rep.rhs, rep.slack]
            else:
                rep = verify_jackson(f, n, 0, spec.p, ALPHA, UNIT_I, grid, prepared)
                want = [rep.lhs, rep.rhs, None]
            single_depth = min(depth, default=math.inf)
            for got, w in zip(row, want):
                if w is None:
                    assert got is None
                else:      # each number within its charge, at most the budget
                    assert agree(got, w, sweep_depth, single_depth,
                                 (NORM_TAIL_BUDGET, NORM_TAIL_BUDGET)), (operator, n)


def test_a_long_sweep_holds_one_block_of_images_at_a_time():
    # p = 1.5 reads the grid: 200 errors and 200 moduli of 15 steps each go
    # through the plane kernel in blocks of spaces._IMAGE_BLOCK grid values
    # (113 images on this grid), so the sweep's peak is that of a 2-entry
    # sweep's 32 images, block for block, not 100 times it
    import tracemalloc

    f, spec, _, _ = setup("second-p1.5", "exp")
    grid = slice_grid(spec.scale, 12, 24)
    prepared = prepared_for_spec(f, spec, grid)

    def peak(ns):
        tracemalloc.start()
        try:
            reports = jackson_sweep(f, ns, 0, spec.p, ALPHA, UNIT_I, grid, prepared)
            return tracemalloc.get_traced_memory()[1], reports
        finally:
            tracemalloc.stop()

    short, few = peak([4, 8])
    long, many = peak([4, 8] * 100)
    assert long <= 5.0 * short
    assert [(r.lhs, r.rhs) for r in many] == [(r.lhs, r.rhs) for r in few] * 100


def test_one_sweep_is_one_multiplier_image_call(monkeypatch, capsys):
    calls = []
    norm = approx._multiplier_norm

    def count(*args):
        calls.append(len(args[3]))
        return norm(*args)

    monkeypatch.setattr(approx, "_multiplier_norm", count)
    for operator, groups_per_n in (("fejer", 1), ("vdp", 2), ("jackson", 2)):
        calls.clear()
        assert cli.main(["converge", "--fn", "exp", "--operator", operator,
                         "--n-list", "2,4,8,16,32"]) == 0
        assert calls == [5 * groups_per_n]
    capsys.readouterr()
