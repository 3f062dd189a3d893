#!/usr/bin/env python3
"""slicefock benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload plane-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; ``--workload all`` runs the three workloads
in turn and ends with one JSON line for all of them.  ``--trace 0`` measures the end-to-end
metrics: seven fresh interpreters each import slicefock and warm up (the
median of their set-up times is ``setup_s``); the last one then runs the
closed loop for ``--seconds`` and checks every value.  Timings are CPU
time scaled to a reference host speed (see ``worker.speed``).  ``--trace 1`` runs
the per-layer breakdown instead.  Human-readable lines go first; the last
line of stdout is one JSON object.  A full record (environment, metrics,
every computed value and its check) is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".bench_out"
SETUP_SAMPLES = 7
THREADS = 1
#: Wall-clock cap for one worker process.
WORKER_TIMEOUT_S = 160

END_TO_END = ("setup_s", "results_per_s", "result_p50_ms", "result_p95_ms",
              "peak_rss_mb")


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    threads = str(min(THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, workload, env, mode, extra=()):
    """Start a worker in a fresh interpreter; returns (record, wall seconds
    from spawn to the end of its warm-up)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--mode", mode, *extra]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{mode} worker timed out")
    finally:
        # also on SIGTERM (raised as SystemExit): no worker outlives us
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}")
    rec = json.loads(out.strip().splitlines()[-1])
    return rec, rec["ready_monotonic"] - t0


def environment(args, workload: str) -> dict:
    """Versions and settings every result file records."""
    probe = ("import json, numpy, scipy; b = numpy.show_config(mode='dicts')"
             "['Build Dependencies']['blas']; print(json.dumps({'numpy': numpy.__version__,"
             " 'scipy': scipy.__version__, 'blas': b.get('name'),"
             " 'blas_version': b.get('version')}))")
    env = worker_env(os.getcwd())
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    info = json.loads(out)
    info.update({
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "omp_threads": env["OMP_NUM_THREADS"],
        "machine": platform.machine(),
        "seed": args.seed,
        "workload": workload,
        "seconds": args.seconds,
        "trace": args.trace,
    })
    return info


WORKLOADS = ("plane-sweep", "algebra-norms", "pointwise")


def measure(args, workload: str, env: dict) -> dict:
    """One workload: spawn the workers, write the record, print the human
    lines; returns the record with metrics as {name: {value, unit}}."""
    stem = os.path.join(OUT_DIR, f"{workload}-seed{args.seed}-trace{args.trace}")
    info = environment(args, workload)
    if args.trace:
        rec, _ = spawn(args, workload, env, "trace", ("--trace-out", stem + "-spans.npz"))
    else:
        samples = [spawn(args, workload, env, "setup") for _ in range(SETUP_SAMPLES - 1)]
        rec, ready = spawn(args, workload, env, "run")
        samples.append((rec, ready))
        setups = [r["setup_s"] for r, _ in samples]
        rec["metrics"]["setup_s"] = (statistics.median(setups), "s")
        rec["setup_samples_s"] = setups
        rec["wall"]["setup_s"] = statistics.median(wall for _, wall in samples)
    rec["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in rec["metrics"].items()}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"environment": info, **rec}, fh, indent=1, allow_nan=True)

    print(f"# {workload} seed={args.seed} trace={args.trace} "
          f"python={info['python']} numpy={info['numpy']} scipy={info['scipy']} "
          f"{info['blas']}={info['blas_version']} threads={info['blas_threads']} "
          f"nproc={info['nproc']}")
    if not args.trace:
        print(f"# samples={rec['samples']} ({rec['cycles']} cycles of "
              f"{rec['calls_per_cycle']} calls) beyond_p95={rec['samples_beyond_p95']} "
              f"timed_s={rec['timed_s']:.3f} setup_samples_s="
              + ",".join(f"{s:.3f}" for s in rec["setup_samples_s"]))
        print("# host speed factor, quartiles over calls: "
              + " ".join(f"{s:.3f}" for s in statistics.quantiles(rec["speed"], n=4))
              + " | wall clock: " + " ".join(f"{k}={v:.6g}" for k, v in rec["wall"].items()))
    else:
        print(f"# results={rec['attempted']} spans={rec['spans']} "
              f"bit_identical={rec['bit_identical']} "
              f"leftover_wrappers={len(rec['leftover_wrappers'])}")
    for name, m in rec["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for item in rec["items"]:
        if not item["ok"]:
            print(f"# FAILED {item['label']}: {item['outcome']} "
                  + "; ".join(f"{c['quantity']} got {c['got']!r} want {c['want']!r}"
                              for c in item["checks"] if not c["ok"]))
    keep = tuple(rec["metrics"]) if args.trace else END_TO_END
    rec["metrics"] = {k: rec["metrics"][k] for k in keep}
    return rec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "slicefock", "__init__.py")):
        return fail("run from the repository root: src/slicefock is missing")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    env = worker_env(root)
    os.makedirs(OUT_DIR, exist_ok=True)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        recs = {w: measure(args, w, env) for w in chosen}
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        return fail(str(exc))

    if len(recs) == 1:
        metrics = recs[args.workload]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, rec in recs.items() for k, m in rec["metrics"].items()}
    print(json.dumps({"correct": all(bool(r["correct"]) for r in recs.values()),
                      "attempted": sum(r["attempted"] for r in recs.values()),
                      "failed": sum(r["failed"] for r in recs.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
