#!/usr/bin/env python3
"""Operator-error convergence sweeps for the built-in function family.

Writes one CSV per (function, operator) pair into the output directory,
using the same columns as `slicefock converge`.  A pair whose sweep fails
writes no CSV (a stale one is removed); the other pairs still run, and the
script exits with the first failure's code.

With ``--against OLD_DIR`` it compares the CSVs with an earlier run's
(comment lines ignored): it lists every number that moved by more than
NORM_TAIL_BUDGET relative, and every pair whose exit status changed (a CSV
written in one run only), and exits 1 if there is any.

    python scripts/convergence_sweep.py --out-dir new --against old
"""

import argparse
import csv
import pathlib
import sys

from slicefock.cli import main as cli_main
from slicefock.spaces import NORM_TAIL_BUDGET

FUNCTIONS = ["exp", "gauss:0.25", "mono:6"]
OPERATORS = ["taylor", "fejer", "vdp", "jackson"]


def rows(path: pathlib.Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def changes(name: str, new: pathlib.Path, old: pathlib.Path) -> list[str]:
    """The differences of one pair's CSV ``new`` from ``old``: exit status
    (which of them exists), row count, and numbers moved past the budget."""
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
            if not (x and y) or abs(float(x) - float(y)) > NORM_TAIL_BUDGET * abs(float(y)):
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
    names = []
    for fn in FUNCTIONS:
        for op in OPERATORS:
            path = out / f"{fn.replace(':', '_')}__{op}.csv"
            names.append(path.name)
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
        lines = [line for name in names for line in changes(name, out / name, old / name)]
        for line in lines:
            print(line)
        print(f"against {old}: {len(names)} pairs, {len(lines)} changes")
        if lines:
            return 1
    return failed


if __name__ == "__main__":
    raise SystemExit(main())
