#!/usr/bin/env python3
"""Newton-step and value sweep of the p < 2 plane descent (best_approx_lp).

Runs every case of families x p x grids x degrees x units (by default the
768-case sweep: exp, gauss:0.25, mono:6 and random:8:<1..5>; p = 1, 1.1,
1.5, 1.9; 12 x 24, 24 x 48 and 48 x 96 plane nodes at scale p / 2;
n = 1, 3, 6, 12; the units i and (0.48, -0.6, 0.64); alpha = 1) and writes
one JSON record per case: Newton steps (each solves one linear system),
value, lower bound, the sampled norm of f, whether the stop rule's gap is
met, and the seconds the solve took.

With ``--against OLD.json`` it lists the cases that took more steps than in
OLD, or whose value lies outside OLD's certified interval [lower, value]
widened by the stop rule's slack tol value + min(tol, NORM_TAIL_BUDGET)
||f||_p, and exits 1 if there is any.

    python scripts/descent_sweep.py --out new.json --against old.json
"""

import argparse
import json
import sys
import time

import numpy as np

from slicefock.approx import best_approx_lp
from slicefock.cli import parse_function
from slicefock.errors import SolverError
from slicefock.quadrature import slice_grid
from slicefock.quaternion import UNIT_I, ImaginaryUnit
from slicefock.spaces import NORM_TAIL_BUDGET, NormSpec, norm

FAMILIES = "exp,gauss:0.25,mono:6," + ",".join(f"random:8:{s}" for s in range(1, 6))
UNITS = {"i": UNIT_I, "0.48,-0.6,0.64": ImaginaryUnit.from_vector((0.48, -0.6, 0.64))}
TOL = 1e-8


def slack(case: dict) -> float:
    return TOL * case["value"] + min(TOL, NORM_TAIL_BUDGET) * case["norm"]


def run_case(f, n, p, grid, unit, counter) -> dict:
    size = norm(f, NormSpec("second", p, 1.0, slice_unit=unit), grid)
    counter[0] = 0
    start = time.perf_counter()
    try:
        res, error = best_approx_lp(f, n, p, 1.0, unit, TOL, grid), None
    except SolverError as exc:
        res, error = exc.best, str(exc)
    seconds = time.perf_counter() - start
    case = {"steps": counter[0], "value": res.value, "lower": res.lower,
            "norm": size, "seconds": seconds, "error": error}
    case["certified"] = error is None and res.value - res.lower <= slack(case) * (1 + 1e-12)
    return case


def regressions(new: dict, old: dict) -> list[str]:
    """Cases of ``new`` with more steps than in ``old``, or a value outside
    old's widened certified interval."""
    lines = []
    for key in sorted(set(new) & set(old)):
        a, b = old[key], new[key]
        if b["steps"] > a["steps"]:
            lines.append(f"{key}: {b['steps']} steps, was {a['steps']}")
        lo, hi = a["lower"] - slack(a), a["value"] + slack(a)
        if not lo <= b["value"] <= hi:
            lines.append(f"{key}: value {b['value']!r} outside [{lo!r}, {hi!r}]")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--families", default=FAMILIES)
    ap.add_argument("--p-list", default="1,1.1,1.5,1.9")
    ap.add_argument("--grids", default="12x24,24x48,48x96")
    ap.add_argument("--n-list", default="1,3,6,12")
    ap.add_argument("--units", default=";".join(UNITS),
                    help="semicolon-separated, among: " + "; ".join(UNITS))
    ap.add_argument("--out", default=None)
    ap.add_argument("--against", default=None)
    args = ap.parse_args()

    units = args.units.split(";")
    counter = [0]
    solve = np.linalg.solve

    def counted(*a, **kw):
        counter[0] += 1
        return solve(*a, **kw)

    np.linalg.solve = counted
    cases = {}
    for fn in args.families.split(","):
        f = parse_function(fn)
        for p in (float(t) for t in args.p_list.split(",")):
            for nodes in args.grids.split(","):
                grid = slice_grid(p / 2.0, *(int(t) for t in nodes.split("x")))
                for n in (int(t) for t in args.n_list.split(",")):
                    for name in units:
                        key = f"{fn} p={p:g} {nodes} n={n} unit={name}"
                        cases[key] = run_case(f, n, p, grid, UNITS[name], counter)
    np.linalg.solve = solve

    steps = sum(c["steps"] for c in cases.values())
    certified = sum(c["certified"] for c in cases.values())
    seconds = sum(c["seconds"] for c in cases.values())
    print(f"{len(cases)} cases, {steps} Newton steps, {certified} certified, "
          f"{seconds:.2f} s in the descent")
    payload = json.dumps({"cases": cases, "steps": steps, "certified": certified,
                          "seconds": seconds}, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            old = json.load(fh)["cases"]
        lines = regressions(cases, old)
        print(f"against {args.against}: {len(set(cases) & set(old))} shared cases, "
              f"{len(lines)} regressions")
        for line in lines:
            print(line)
        return 1 if lines else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
