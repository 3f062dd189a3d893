#!/usr/bin/env python3
"""Reference values of the smoothing-difference moment in mpmath.

For each (n, m, p) of the grid, with r from ``operators.jackson_rule_r`` and
s = (m + 1) p, the moment

    int_0^pi (n t + 1)^s S(t)^(2r) dt / int_0^pi S(t)^(2r) dt,
    S(t) = sin(n t / 2) / sin(t / 2),

is integrated in its product form by mpmath's tanh-sinh rule between the
zeros 2 pi k / n of S, in ``--dps`` + 10 digits, and written with ``--dps``
significant digits (the integrand is even, so this is the moment over
[-pi, pi] that ``operators.moment_bound`` computes).  The integrator's own
error estimate is checked against 10^-dps of the value.

    python scripts/moment_reference.py --out tests/moment_bound_mpmath.json
"""

import argparse
import functools
import json

import mpmath

from slicefock.operators import jackson_rule_r


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _integral(n: int, r: int, s, dps: int):
    """int_0^pi (n t + 1)^s S(t)^(2r) dt in dps + 10 digits, checked to dps + 2."""
    with mpmath.workdps(dps + 10):
        cuts = [2 * mpmath.pi * k / n for k in range((n + 1) // 2)] + [mpmath.pi]

        def integrand(t):
            kernel = (mpmath.sin(n * t / 2) / mpmath.sin(t / 2)) ** (2 * r) if t else \
                mpmath.mpf(n) ** (2 * r)
            return kernel if s == 0 else (n * t + 1) ** s * kernel

        value, err = mpmath.quad(integrand, cuts, error=True)
        if err > 10 ** -(dps + 2) * value:
            raise RuntimeError(f"mpmath's quadrature missed {dps} digits at "
                               f"n = {n}, r = {r}, s = {s}")
        return value


_kernel_integral = functools.lru_cache(maxsize=None)(functools.partial(_integral, s=0))


def moment(n: int, m: int, p: float, dps: int) -> str:
    """The moment at (n, m, p) to ``dps`` significant digits."""
    r = jackson_rule_r(m, p)
    with mpmath.workdps(dps + 10):
        num = _integral(n, r, (m + 1) * mpmath.mpf(p), dps)
        return mpmath.nstr(num / _kernel_integral(n, r, dps=dps), dps)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n-list", type=_ints, default=[1, 2, 3, 8, 64, 256, 1024])
    ap.add_argument("--m-list", type=_ints, default=[0, 1, 3])
    ap.add_argument("--p-list", type=lambda t: [float(x) for x in t.split(",")],
                    default=[1.0, 1.5, 2.0, 3.0, 8.0])
    ap.add_argument("--dps", type=int, default=30)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    rows = [{"n": n, "m": m, "p": p, "value": moment(n, m, p, args.dps)}
            for n in args.n_list for m in args.m_list for p in args.p_list]
    payload = "{\n" + f'"dps": {args.dps},\n"moments": [\n' \
        + ",\n".join(json.dumps(row) for row in rows) + "\n]\n}"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
