"""One benchmark process: import slicefock, build the seeded workload, warm up,
then run the timed closed loop (``--mode run``), or stop after set-up
(``--mode setup``), or run the untraced/traced pair (``--mode trace``).

Started by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``
and the BLAS thread count pinned; prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from array import array

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: Calibration passes that measure the host's speed after set-up.
SETUP_PASSES = 400


def bits(values: dict) -> tuple:
    """Exact identity of a value record: every float as its hex string."""
    out = []
    for key in sorted(values):
        v = values[key]
        seq = v if isinstance(v, list) else [v]
        out.append((key, tuple(float(x).hex() for x in seq)))
    return tuple(out)


def call_item(item):
    """Returns (values or None, outcome): outcome "ok", "expected" for the
    expected rejection, or the repr of anything else raised (or not raised)."""
    try:
        vals = item.call()
    except Exception as exc:  # one failed result must not stop the loop
        if item.expect is not None and isinstance(exc, item.expect):
            return None, "expected"
        return None, f"raised {type(exc).__name__}: {exc}"
    if item.expect is not None:
        return vals, f"did not raise {item.expect.__name__}"
    return vals, "ok"


def warm_up(items) -> None:
    """One call of each distinct call kind before timing starts."""
    seen = set()
    for item in items:
        if item.kind not in seen:
            seen.add(item.kind)
            call_item(item)


#: The reference speed: CPU seconds of one calibration pass on it, about
#: what a pass took on the 2-vCPU virtual machine the benchmark was written
#: on.  Every timing metric is CPU time scaled to this speed; see ``speed``.
REF_PASS_S = 2.5e-4
#: Calibration passes between two calls: at least this many, and enough to
#: take this share of the longer call's time.
MIN_PASSES = 2
PASS_SHARE = 0.1

_CAL = np.linspace(0.0, 1.0, 48) * (1.0 + 0.5j)
_CAL_M = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)
_CAL_X = np.linspace(0.0, 1.0, 1024)[:, None]
_CAL_LM = np.eye(4)[::-1].copy()


def calibration_pass() -> float:
    """Fixed work of the kinds slicefock does, none of it slicefock's own:
    a Horner-like recursion on a (1024, 4) array with a 4 x 4 product (the
    shape of plane evaluation), small complex-array expressions and a small
    product (per-call work on a few points), and interpreted scalar
    arithmetic.  Plane-heavy calls slow down with the first part when the
    host is busy, point work with the second; the pass mixes both."""
    out = np.ones((1024, 4))
    for _ in range(4):
        out = _CAL_X * out + _CAL_X[::-1] * (out @ _CAL_LM) + 1.0
    acc = float(out[0, 0])
    z = _CAL
    for _ in range(18):
        z = np.exp(1j * z.imag) * z.real + 0.5 * z
        acc += float(np.abs(z).sum())
    for _ in range(6):
        acc += float((_CAL_M @ _CAL_M).trace())
    for k in range(180):
        acc += math.sin(k * 0.01) * k
    return acc


def timed_pass() -> float:
    """CPU seconds of one calibration pass."""
    c = time.process_time()
    calibration_pass()
    return time.process_time() - c


def speed(*groups) -> float:
    """The host's slowness, from groups of calibration passes' CPU seconds
    (for a call: those just before and those just after it), relative to
    the reference host: 1.0 there, 1.3 when the same work takes 30 % longer.
    Each group counts by its median, and the groups count equally.  On a
    shared virtual machine the host's other load changes the speed of every
    instruction by tens of percent, for seconds to minutes; dividing by this
    factor measures the code rather than the neighbours."""
    return float(np.mean([np.median(g) for g in groups])) / REF_PASS_S


def passes_between(cpu_s: float) -> list[float]:
    """Calibration passes run between two calls: at least ``MIN_PASSES``,
    and enough to take about ``PASS_SHARE`` of ``cpu_s``, the longer of the
    two calls, so that a long call is sampled on both sides."""
    n = max(MIN_PASSES, math.ceil(PASS_SHARE * cpu_s / REF_PASS_S))
    return [timed_pass() for _ in range(n)]


def timed_loop(items, seconds: float, cycles: int | None = None, wrap=None):
    """Closed loop, one caller: the next result starts when the previous one
    returns.  Runs whole cycles of the item list, so every run weighs each
    call the same: at least one, then another only while it is expected to
    end within ``seconds`` (or exactly ``cycles`` of them).  Calibration
    passes run between the calls, and call k's ``speed[k]`` comes from the
    passes just before and just after it.

    Call k is item ``k % len(items)``.  Each call's wall and CPU seconds go
    into flat arrays; values and outcomes are kept for the first cycle only,
    and later cycles are compared with them bit for bit (``changed`` lists
    the items that differed), so the loop's own memory barely grows with
    the number of cycles and ``peak_rss_mb`` measures the library."""
    clock, cpu = time.perf_counter, time.process_time
    latency_s, cpu_s, speeds, cycle_s = array("d"), array("d"), array("d"), []
    values, outcomes, keys, changed = [], [], [], set()
    before = passes_between(0.0)
    last_cpu = [0.0] * len(items)   # each call's CPU time in the cycle before
    t0 = clock()
    done = 0
    while True:
        c0 = clock()
        for idx, item in enumerate(items):
            s, sc = clock(), cpu()
            vals, outcome = wrap(call_item, item) if wrap else call_item(item)
            cpu_s.append(cpu() - sc)
            latency_s.append(clock() - s)
            last_cpu[idx] = cpu_s[-1]
            after = passes_between(max(cpu_s[-1], last_cpu[(idx + 1) % len(items)]))
            speeds.append(speed(before, after))
            before = after
            key = (outcome, bits(vals) if vals is not None else None)
            if done == 0:
                values.append(vals)
                outcomes.append(outcome)
                keys.append(key)
            elif key != keys[idx]:
                changed.add(idx)
        done += 1
        cycle_s.append(clock() - c0)
        elapsed = clock() - t0
        if cycles is not None:
            if done >= cycles:
                break
        elif elapsed * (done + 1) / done > seconds:
            break
    return {"wall_s": clock() - t0, "cycles": done, "cycle_s": cycle_s,
            "latency_s": latency_s, "cpu_s": cpu_s, "speed": speeds,
            "values": values, "outcome": outcomes, "changed": sorted(changed)}


def scaled_s(loop) -> float:
    """Total CPU seconds of a loop's calls, scaled to the reference speed."""
    return float(np.sum(np.asarray(loop["cpu_s"]) / np.asarray(loop["speed"])))


def check_items(items, loop) -> tuple[list[dict], int]:
    """Value check of every distinct item (after timing) and the count of
    failed results.  A result fails when it raised other than expected, when
    its value misses the reference, or when it differs bit for bit from the
    first result of the same item."""
    n = len(items)
    report = []
    bad = 0
    for idx, item in enumerate(items):
        vals, outcome = loop["values"][idx], loop["outcome"][idx]
        stable = idx not in loop["changed"]
        rows = []
        if outcome == "ok":
            try:
                rows = [r.record() for r in item.check(vals)]
            except Exception as exc:  # a broken value must not break the report
                outcome = f"check raised {type(exc).__name__}: {exc}"
        ok = outcome in ("ok", "expected") and all(r["ok"] for r in rows) and stable
        bad += not ok
        report.append({"label": item.label, "kind": item.kind, "outcome": outcome,
                       "deterministic": stable, "results": loop["cycles"], "ok": ok,
                       "latency_ms": [t * 1000.0 for t in loop["latency_s"][idx::n]],
                       "values": vals, "checks": rows})
    return report, bad * loop["cycles"]


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics, so a call moving past its neighbour in rank moves the
    estimate a little, not by the gap between two call costs."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def run_mode(items, seconds):
    """End-to-end metrics over whole cycles.  A call's cost in one cycle is
    its CPU time divided by the ``speed`` of the calibration passes run
    just before and just after it; a call's latency is the median of its
    costs over the cycles.  The rate is a cycle's calls over
    the sum of those latencies.  The plain wall-clock figures (each call's
    fastest repetition) are recorded beside them as ``wall``."""
    loop = timed_loop(items, seconds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report, failed = check_items(items, loop)
    cost_ms = 1000.0 * np.asarray(loop["cpu_s"]) / np.asarray(loop["speed"])
    costs = [cost_ms[idx::len(items)] for idx in range(len(items))]
    for row, cost in zip(report, costs):
        row["cost_ms"] = cost.tolist()
    n = len(loop["latency_s"])

    def figures(per_call):
        per_call = np.asarray(per_call)
        return (1000.0 * len(items) / float(np.sum(per_call)),
                quantile(per_call, 0.5), quantile(per_call, 0.95))

    per_call = [float(np.median(c)) for c in costs]
    rate, p50, p95 = figures(per_call)
    beyond = int(np.count_nonzero(np.asarray(per_call) > p95))
    wall = dict(zip(("results_per_s", "result_p50_ms", "result_p95_ms"),
                    figures([min(r["latency_ms"]) for r in report])))
    metrics = {
        "results_per_s": (rate, "1/s"),
        "result_p50_ms": (p50, "ms"),
        "result_p95_ms": (p95, "ms"),
        "peak_rss_mb": (peak, "MB"),
        "failed_frac": (failed / n, "fraction"),
    }
    return {"attempted": n, "failed": failed, "correct": failed == 0,
            "samples": n, "cycles": loop["cycles"], "calls_per_cycle": len(items),
            "samples_beyond_p95": beyond * loop["cycles"], "cycle_s": loop["cycle_s"],
            "speed": loop["speed"].tolist(), "wall": wall,
            "timed_s": loop["wall_s"], "metrics": metrics, "items": report}


def trace_mode(items, seconds, out_path):
    """An untraced pass for half the time, then the same results traced:
    the per-layer numbers, the tracing overhead (scaled CPU time, as in
    ``run_mode``, so that a change of the host's speed between the passes
    does not read as overhead), and a bit-for-bit comparison of the two
    passes' values."""
    plain = timed_loop(items, seconds / 2.0)
    count = len(plain["latency_s"])
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = timed_loop(items, math.inf, cycles=plain["cycles"],
                            wrap=lambda fn, item: tr.span(tracing.ROOT, fn, item))
    finally:
        tr.restore()
    leftover = tracing.leftover_wrappers()
    # each pass compared its later cycles with its first, bit for bit
    mismatched = [item.label for item, a, b, oa, ob in zip(
        items, plain["values"], traced["values"], plain["outcome"], traced["outcome"])
        if oa != ob or (a is not None and bits(a) != bits(b))]
    mismatched += [items[i].label for i in traced["changed"]]
    report, failed = check_items(items, plain)
    tr.save(out_path)
    # every cycle makes the same calls, so per cycle a count repeats exactly
    metrics = {k: (v if k.endswith("planes_per_norm") else v / traced["cycles"], _unit(k))
               for k, v in tr.layer_metrics().items()}
    metrics["trace.overhead_frac"] = (scaled_s(traced) / scaled_s(plain) - 1.0, "fraction")
    ok = failed == 0 and not leftover and not mismatched
    return {"attempted": count, "failed": failed, "correct": ok,
            "bit_identical": not mismatched, "mismatched": sorted(set(mismatched)),
            "leftover_wrappers": leftover, "spans": len(tr.start),
            "untraced_s": plain["wall_s"], "traced_s": traced["wall_s"],
            "metrics": metrics, "items": report}


def _unit(name: str) -> str:
    if name.endswith("planes_per_norm"):
        return "planes/call"
    return "s/cycle" if name.endswith("_s") else "1/cycle"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    items = workloads.WORKLOADS[args.workload](args.seed)
    warm_up(items)
    ready = time.monotonic()
    # set-up cost: CPU time since the process began, scaled like the calls
    setup_cpu = time.process_time()
    setup_speed = speed([timed_pass() for _ in range(SETUP_PASSES)])
    out = {"ready_monotonic": ready, "setup_cpu_s": setup_cpu,
           "setup_speed": setup_speed, "setup_s": setup_cpu / setup_speed}
    if args.mode == "run":
        out.update(run_mode(items, args.seconds))
    elif args.mode == "trace":
        out.update(trace_mode(items, args.seconds, args.trace_out))
    print(json.dumps(out, allow_nan=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
