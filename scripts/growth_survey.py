#!/usr/bin/env python3
"""Order/type survey: growth reports for exponential-type functions and the
membership gate demonstration for a type past alpha / 2."""

import argparse
import json

import numpy as np

from slicefock.errors import NotInSpaceError
from slicefock.series import exp_series, gauss_series, monomial
from slicefock.spaces import NormSpec, norm, order_type


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    alpha = args.alpha

    rows = []
    for name, f, radii in [
        ("exp", exp_series(), np.geomspace(2, 64, 10)),
        (f"gauss:{alpha / 4}", gauss_series(alpha / 4),
         np.geomspace(2, 16 / np.sqrt(alpha), 10)),
        ("mono:6", monomial(6), np.geomspace(1e2, 1e8, 10)),
    ]:
        rep = order_type(f, radii)
        rows.append({"fn": name, "order": rep.order_estimate,
                     "type": rep.type_estimate, "residual": rep.residual})

    gate = {"fn": f"gauss:{0.6 * alpha}", "rejected": False}
    try:
        norm(gauss_series(0.6 * alpha), NormSpec("second", 2.0, alpha))
    except NotInSpaceError:
        gate["rejected"] = True
    payload = json.dumps({"alpha": alpha, "growth": rows,
                          "divergence_gate": gate}, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
