"""Command-line front end: norms, convergence sweeps, multiplier tables,
smoothness moduli, best approximation, growth reports, and kernel fits.

Each subcommand accepts exactly the flags it reads.  Sweeps are emitted as
CSV (header row, '.' decimal separator, one leading timestamp comment line)
or JSON; ``norm`` and ``growth`` reports are JSON with deterministic key
order.  Exit codes: 0 success, 1 argument, parse or validation errors (also
non-finite values and sizes past the caps below, refused before anything is
allocated, and values the library cannot certify), 2 when f is not in the
space ("not in space": its order-2 type is at least alpha / 2).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import approx, kernels, operators, spaces
from .errors import NotInSpaceError, SliceFockError
from .quadrature import MAX_RADIAL
from .quaternion import ImaginaryUnit, Quaternion, UNIT_I, UNIT_J, UNIT_K
from .series import (
    DEGREE_CAP,
    SliceSeries,
    from_generator,
    random_series,
    read_coefficients,
)


#: Accepted ``growth --radii`` counts: the fit needs four radii, and each
#: radius is a full max-modulus sweep.
GROWTH_RADII = (4, 1000)
#: Largest ``smoothness --h-grid``: each step size is a row of coefficient
#: terms at p = 2, p / 2 rows of coefficient convolutions at even p up to
#: ``spaces.EVEN_P_CAP``, and a full plane norm at every other p.
H_GRID_CAP = 4096
#: Largest ``--slice sup:<M>``: at p != 2 each sampled plane is a full plane
#: integral (a sup over planes reads the grid at every p != 2).
SUP_SAMPLES_CAP = 1024
#: Largest ``kernel-fit --centers`` count: every prefix of the centers is a
#: least-squares solve with 4 n columns and its singular values.
CENTERS_CAP = 64
#: Largest ``smoothness --k``: the difference multipliers (e^{I j h} - 1)^k
#: reach 2^k in modulus, a finite float only up to k = 1023.
DIFFERENCE_ORDER_CAP = 1023
#: Largest ``--quad-angular``: refinement doubles it, and every radius holds
#: that many quaternion values.
ANGULAR_CAP = 4096


class CliError(Exception):
    """Bad command line or bad spec string; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _check_range(what: str, value: int, low: int, high: int) -> None:
    """Refuse a size from the command line outside [low, high] before
    anything of that size is allocated."""
    if not low <= value <= high:
        raise CliError(f"{what} must lie in [{low}, {high}], got {value}")


def _capped_degree(text: str) -> int:
    degree = int(text)
    if degree > DEGREE_CAP:
        raise CliError(f"degree {degree} exceeds the degree cap {DEGREE_CAP}")
    return degree


def parse_function(spec: str) -> SliceSeries:
    """Function specs: exp | gauss:<beta> | mono:<k> | poly:<path> |
    random:<deg>:<seed> | kernel-section:<w>,<x>,<y>,<z>,<alpha>.
    Degrees of mono and random are capped at ``DEGREE_CAP``."""
    try:
        if spec.startswith("poly:"):
            return read_coefficients(spec.split(":", 1)[1])
        if spec.startswith("random:"):
            _, deg, seed = spec.split(":")
            return random_series(_capped_degree(deg), int(seed))
        if spec.startswith("mono:"):
            _capped_degree(spec.split(":", 1)[1])
        return from_generator(spec)
    except CliError:
        raise
    except Exception as exc:
        raise CliError(f"bad function spec {spec!r}: {exc}") from exc


def parse_slice(spec: str):
    """Slice specs: i | j | k | x,y,z | sup:<M>.  Returns an imaginary unit
    or ("sup", M)."""
    named = {"i": UNIT_I, "j": UNIT_J, "k": UNIT_K}
    if spec in named:
        return named[spec]
    if spec.startswith("sup:"):
        try:
            m = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise CliError(f"bad sup sample count in {spec!r}") from exc
        _check_range("sup sample count", m, 1, SUP_SAMPLES_CAP)
        return ("sup", m)
    parts = spec.split(",")
    if len(parts) == 3:
        try:
            return ImaginaryUnit.from_vector([float(p) for p in parts])
        except ValueError as exc:
            raise CliError(f"bad slice vector {spec!r}: {exc}") from exc
    raise CliError(f"unknown slice spec {spec!r}")


def parse_centers(spec: str) -> list[Quaternion]:
    """Comma-separated centers; each one either a bare real or a colon-joined
    4-tuple w:x:y:z."""
    tokens = [tok.strip() for tok in spec.split(",") if tok.strip()]
    _check_range("center count", len(tokens), 1, CENTERS_CAP)
    out = []
    for tok in tokens:
        try:
            if ":" in tok:
                parts = [float(p) for p in tok.split(":")]
                if len(parts) != 4:
                    raise ValueError("need exactly four components")
                out.append(Quaternion(*parts))
            else:
                out.append(Quaternion(float(tok)))
        except ValueError as exc:
            raise CliError(f"bad center {tok!r}: {exc}") from exc
    return out


def _norm_spec(args, kind: str = "second") -> spaces.NormSpec:
    """The norm ``--p``, ``--alpha`` and ``--slice`` name; :class:`NormSpec`
    refuses a slice given with the first kind."""
    sl = None if args.slice is None else parse_slice(args.slice)
    if isinstance(sl, tuple):
        return spaces.NormSpec(kind, args.p, args.alpha, sup_samples=sl[1])
    return spaces.NormSpec(kind, args.p, args.alpha, slice_unit=sl)


def _plane_spec(args) -> spaces.NormSpec:
    """:func:`_norm_spec` for the subcommands that work on one plane."""
    spec = _norm_spec(args)
    if spec.sup_samples is not None:
        raise CliError(f"{args.command} works on one plane, not a sup policy")
    return spec


def _grid_for(args, spec: spaces.NormSpec):
    if args.quad_angular is not None:
        _check_range("--quad-angular", args.quad_angular, 1, ANGULAR_CAP)
    return spaces.default_grid(spec, n_radial=args.quad_radial,
                               n_angular=args.quad_angular)


def _check_operator_degree(name: str, n: int, m: int, p: float) -> None:
    """Refuse an operator whose result degree, or whose kernel power r,
    exceeds ``DEGREE_CAP`` before any of its tables or series is built: at
    n = 1 the degree is 0 for every r, but the kernel still takes r steps."""
    if name == "jackson":
        _check_range("kernel power r", operators.jackson_rule_r(m, p), 1, DEGREE_CAP)
    bound = operators.degree_bound(name, n, m, p)
    if bound > DEGREE_CAP:
        raise CliError(f"{name} operator at n = {n} has degree {bound}, "
                       f"above the degree cap {DEGREE_CAP}")


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    buf.write(f"# generated-at {stamp}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else repr(v) if isinstance(v, float)
                         else str(v) for v in row])
    return buf.getvalue()


def _json_text(record) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _format_rows(args, header, rows, **fields):
    """The rows as CSV, or as JSON: ``fields`` plus the rows keyed by header."""
    if args.format == "csv":
        _emit(args, _csv_text(header, rows))
    else:
        _emit(args, _json_text({**fields,
                                "rows": [dict(zip(header, r)) for r in rows]}))


# ---------------------------------------------------------------------------
# subcommands

def cmd_norm(args) -> int:
    if args.quad_radial is not None:
        # the report doubles it; refused alike where the norm reads no grid
        _check_range("--quad-radial", args.quad_radial, 1, MAX_RADIAL // 2)
    f = parse_function(args.fn)
    spec = _norm_spec(args, args.kind)
    report = spaces.norm_report(f, spec, _grid_for(args, spec))
    _emit(args, _json_text(report.to_record()))
    return 0


def cmd_converge(args) -> int:
    if args.kind == "first" and args.operator not in ("taylor", "fejer"):
        raise CliError(f"converge --kind first runs taylor and fejer, not {args.operator}")
    f = parse_function(args.fn)
    spec = _norm_spec(args, "first") if args.kind == "first" else _plane_spec(args)
    unit = spec.slice_unit
    n_list = _parse_list(args.n_list)
    for n in n_list:
        _check_operator_degree(args.operator, n, args.m, args.p)
    grid = _grid_for(args, spec)
    make_op = {"taylor": operators.taylor_op, "fejer": operators.fejer_op}.get(args.operator)
    # one multiplier-image call for the whole sweep, f prepared once for it:
    # errors, and bounds where they are norms
    if make_op:
        errors = approx.operator_errors([make_op(n) for n in n_list],
                                        spaces.prepared_for_spec(f, spec, grid), spec, grid)
        rows = [(n, err, None, None) for n, err in zip(n_list, errors)]
    elif args.operator == "vdp":
        rows = [(rep.n, rep.lhs, rep.rhs, rep.slack) for rep in approx.vdp_sweep(
            f, n_list, args.p, args.alpha, unit, grid)]
    else:
        rows = [(rep.n, rep.lhs, rep.rhs, None) for rep in approx.jackson_sweep(
            f, n_list, args.m, args.p, args.alpha, unit, grid)]
    _format_rows(args, ("n", "error", "bound", "slack"), rows,
                 operator=args.operator, fn=args.fn)
    return 0


def cmd_multipliers(args) -> int:
    _check_operator_degree(args.family, args.n, args.m, args.p)
    if args.family == "fejer":
        op = operators.fejer_op(args.n)
    elif args.family == "vdp":
        op = operators.vdp_op(args.n)
    else:
        op = operators.jackson_op(args.n, args.m, args.p)
    rows = [(k, float(r), args.family, args.n,
             args.m if args.family == "jackson" else None,
             operators.jackson_rule_r(args.m, args.p)
             if args.family == "jackson" else None)
            for k, r in enumerate(op.rho)]
    if args.format == "csv":
        _emit(args, _csv_text(("k", "rho_k", "family", "n", "m", "r"), rows))
    else:
        _emit(args, _json_text({"family": args.family, "n": args.n,
                                "rho": [float(r) for r in op.rho],
                                "degree_bound": op.degree_bound}))
    return 0


def cmd_smoothness(args) -> int:
    _check_range("--h-grid", args.h_grid, 1, H_GRID_CAP)
    _check_range("--k", args.k, 1, DIFFERENCE_ORDER_CAP)
    f = parse_function(args.fn)
    spec = _plane_spec(args)
    grid = _grid_for(args, spec)
    rows = []
    for d in _parse_list(args.delta_list, float):
        query = approx.ModulusQuery(k=args.k, delta=d, p=args.p,
                                    alpha=args.alpha, unit=spec.slice_unit,
                                    h_grid=args.h_grid)
        rows.append((d, approx.modulus(f, query, grid)))
    _format_rows(args, ("delta", "omega"), rows, fn=args.fn, k=args.k)
    return 0


def cmd_bestapprox(args) -> int:
    if args.kind == "first" and args.p != 2.0:
        raise CliError("bestapprox --kind first computes the p = 2 projection "
                       f"only, not p = {args.p:g}")
    n_list = _parse_list(args.n_list)
    for n in n_list:
        _check_range("degree", n, 0, DEGREE_CAP)
    f = parse_function(args.fn)
    spec = _norm_spec(args, "first") if args.kind == "first" else _plane_spec(args)
    grid = _grid_for(args, spec)
    rows = []
    for n in n_list:
        # exact from coefficients at p = 2: no grid enters
        if args.kind == "first":
            res = approx.best_approx_first(f, n, args.alpha)
        elif args.p == 2.0:
            res = approx.best_approx_second(f, n, args.alpha)
        else:
            res = approx.best_approx_lp(f, n, args.p, args.alpha,
                                        spec.slice_unit, grid=grid)
        rows.append((n, res.value, res.method))
    _format_rows(args, ("n", "value", "method"), rows, fn=args.fn)
    return 0


def cmd_growth(args) -> int:
    _check_range("--radii", args.radii, *GROWTH_RADII)
    if not 0.0 < args.r_min < args.r_max < np.inf:
        # the fit reads the outer half of an increasing radius grid
        raise CliError(f"need 0 < --r-min < --r-max < inf, got {args.r_min!r} "
                       f"and {args.r_max!r}")
    f = parse_function(args.fn)
    radii = np.geomspace(args.r_min, args.r_max, args.radii)
    rep = spaces.order_type(f, radii)
    record = {
        "fn": args.fn,
        "order_estimate": rep.order_estimate,
        "type_estimate": rep.type_estimate,
        "radii": [float(r) for r in rep.radii],
        "log_max_modulus": [float(v) for v in rep.log_max_modulus],
        "residual": rep.residual,
    }
    _emit(args, _json_text(record))
    return 0


def cmd_kernel_fit(args) -> int:
    f = parse_function(args.fn)
    centers = parse_centers(args.centers)
    rows = []
    for count in range(1, len(centers) + 1):
        fit = kernels.fit_with_sections(f, centers[:count], args.alpha)
        rows.append((count, fit.residual, fit.condition))
    _format_rows(args, ("centers", "residual", "condition"), rows,
                 fn=args.fn, alpha=args.alpha)
    return 0


# ---------------------------------------------------------------------------

def _parse_list(text: str, kind=int) -> list:
    try:
        items = [kind(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise CliError(f"bad {kind.__name__} list {text!r}") from exc
    if not items:
        raise CliError(f"empty {kind.__name__} list {text!r}")
    return items


def _norm_flags(p, kind: bool = False) -> None:
    """--fn and the weighted norm on its grid: the flags of every subcommand
    that integrates f, with ``--kind`` where both kinds are answered."""
    p.add_argument("--fn", required=True, help="function spec")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=1.0)
    if kind:
        p.add_argument("--kind", choices=("first", "second"), default="second")
    p.add_argument("--slice", default=None,
                   help="i | j | k | x,y,z | sup:<M> (second kind; default i)")
    p.add_argument("--quad-radial", type=int, default=None,
                   help="radial nodes; checked at every p, read at p != 2 "
                        "except by the coefficient sums of even p <= 8 in the "
                        "first kind and on one plane of the second (E_n's "
                        "descent reads them there too)")
    p.add_argument("--quad-angular", type=int, default=None,
                   help="angular nodes; read where --quad-radial is")


def _output_flags(p, table: bool = True) -> None:
    p.add_argument("--out", default=None, help="output path (default stdout)")
    if table:
        p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> _Parser:
    parser = _Parser(prog="slicefock", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="weighted norm with stability evidence")
    _norm_flags(p, kind=True)
    _output_flags(p, table=False)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("converge", help="operator error sweep over degrees")
    _norm_flags(p, kind=True)
    _output_flags(p)
    p.add_argument("--operator", required=True,
                   choices=("taylor", "fejer", "vdp", "jackson"))
    p.add_argument("--n-list", default="2,4,8,16")
    p.add_argument("--m", type=int, default=0, help="difference order (jackson)")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("multipliers", help="dump multiplier tables")
    p.add_argument("--family", required=True, choices=("fejer", "vdp", "jackson"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=0, help="difference order (jackson)")
    p.add_argument("--p", type=float, default=2.0, help="exponent (jackson)")
    _output_flags(p)
    p.set_defaults(func=cmd_multipliers)

    p = sub.add_parser("smoothness", help="modulus of smoothness sweep")
    _norm_flags(p)
    _output_flags(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--delta-list", default="0.5,0.25,0.125,0.0625")
    p.add_argument("--h-grid", type=int, default=16)
    p.set_defaults(func=cmd_smoothness)

    p = sub.add_parser("bestapprox", help="best polynomial approximation sweep")
    _norm_flags(p, kind=True)
    _output_flags(p)
    p.add_argument("--n-list", default="0,1,2,3,4")
    p.set_defaults(func=cmd_bestapprox)

    p = sub.add_parser("growth", help="entire-function order/type report")
    p.add_argument("--fn", required=True, help="function spec")
    p.add_argument("--r-min", type=float, default=2.0)
    p.add_argument("--r-max", type=float, default=16.0)
    p.add_argument("--radii", type=int, default=10)
    _output_flags(p, table=False)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("kernel-fit", help="least-squares fit by kernel sections")
    p.add_argument("--fn", required=True, help="function spec")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--centers", required=True,
                   help="comma-separated centers; real or w:x:y:z tuples")
    _output_flags(p)
    p.set_defaults(func=cmd_kernel_fit)

    return parser


@functools.lru_cache(maxsize=1)
def _shared_parser() -> _Parser:
    """One parser per process for :func:`main`; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NotInSpaceError as exc:
        print(f"not in space: {exc}", file=sys.stderr)
        return 2
    except (SliceFockError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
