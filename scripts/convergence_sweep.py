#!/usr/bin/env python3
"""Operator-error convergence sweeps for the built-in function family.

Writes one CSV per (function, operator) pair into the output directory,
using the same columns as `slicefock converge`.  A pair whose sweep fails
writes no CSV (a stale one is removed); the other pairs still run, and the
script exits with the first failure's code.

With ``--against OLD_DIR`` it compares the CSVs with an earlier run's
(comment lines ignored): it lists every number that moved by more than
NORM_TAIL_BUDGET relative, and every pair whose exit status changed (a CSV
written in one run only), and exits 1 if there is any.  The vdp bound and
slack at p != 2 rest on E_n from the descent, certified to its stop rule
DESCENT_TOL E_n + NORM_TAIL_BUDGET ||f||_p: they are held to c times that,
c the vdp constant, the slack also to the error's budget.

    python scripts/convergence_sweep.py --out-dir new --against old
"""

import argparse
import csv
import pathlib
import sys

from slicefock.approx import DESCENT_TOL, vdp_constant
from slicefock.cli import main as cli_main
from slicefock.cli import parse_function
from slicefock.spaces import NORM_TAIL_BUDGET, NormSpec, norm

FUNCTIONS = ["exp", "gauss:0.25", "mono:6"]
OPERATORS = ["taylor", "fejer", "vdp", "jackson"]


def rows(path: pathlib.Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def allowed(col: str, got: dict, was: dict, descent) -> float:
    """How far column ``col`` may move from the old row ``was`` to ``got``:
    NORM_TAIL_BUDGET of it, or for the bound and slack of a vdp pair at
    p != 2 (``descent`` = (c, ||f||_p)) c (DESCENT_TOL E_n + NORM_TAIL_BUDGET
    ||f||_p), E_n the larger bound over c, the slack also the error's
    budget."""
    if descent is None or col not in ("bound", "slack"):
        return NORM_TAIL_BUDGET * abs(float(was[col]))
    c, f_norm = descent
    free = DESCENT_TOL * max(abs(float(got["bound"])), abs(float(was["bound"]))) \
        + c * NORM_TAIL_BUDGET * f_norm
    return free + NORM_TAIL_BUDGET * abs(float(was["error"])) if col == "slack" else free


def changes(name: str, new: pathlib.Path, old: pathlib.Path, descent=None) -> list[str]:
    """The differences of one pair's CSV ``new`` from ``old``: exit status
    (which of them exists), row count, and numbers moved past what they may
    (:func:`allowed`; ``descent`` for a vdp pair at p != 2)."""
    if new.exists() != old.exists():
        return [f"{name}: " + ("written, failed before" if new.exists() else
                               "failed, was written")]
    if not new.exists():
        return []
    a, b = rows(new), rows(old)
    if len(a) != len(b) or a[:1] != b[:1]:
        return [f"{name}: {len(a) - 1} rows, was {len(b) - 1}"]
    out = []
    header = a[0]
    for got, was in zip(a[1:], b[1:]):
        for col, x, y in zip(header, got, was):
            if x == y:
                continue
            if not (x and y) or abs(float(x) - float(y)) > allowed(
                    col, dict(zip(header, got)), dict(zip(header, was)), descent):
                out.append(f"{name} {header[0]}={got[0]} {col}: {x or 'empty'}, was {y or 'empty'}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out-dir", default="sweeps")
    ap.add_argument("--n-list", default="2,4,8,16,32")
    ap.add_argument("--p", default="2")
    ap.add_argument("--alpha", default="1")
    ap.add_argument("--against", default=None)
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failed = 0
    names, descents = [], {}
    p, alpha = float(args.p), float(args.alpha)
    for fn in FUNCTIONS:
        for op in OPERATORS:
            path = out / f"{fn.replace(':', '_')}__{op}.csv"
            names.append(path.name)
            if args.against and op == "vdp" and p != 2.0:
                descents[path.name] = (vdp_constant(p),
                                       norm(parse_function(fn), NormSpec("second", p, alpha)))
            path.unlink(missing_ok=True)
            rc = cli_main([
                "converge", "--fn", fn, "--operator", op,
                "--n-list", args.n_list, "--p", args.p, "--alpha", args.alpha,
                "--out", str(path),
            ])
            if rc != 0:
                print(f"sweep failed for {fn} / {op}", file=sys.stderr)
                failed = failed or rc
                continue
            print(f"wrote {path}")
    if args.against:
        old = pathlib.Path(args.against)
        lines = [line for name in names
                 for line in changes(name, out / name, old / name, descents.get(name))]
        for line in lines:
            print(line)
        print(f"against {old}: {len(names)} pairs, {len(lines)} changes")
        if lines:
            return 1
    return failed


if __name__ == "__main__":
    raise SystemExit(main())
