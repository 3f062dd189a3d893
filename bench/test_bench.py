"""Checks of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q

The traced run must compute bit-identical values to the untraced run and
leave no wrapper bound; the tracer's self times must partition the traced
time; the value check must pass on the library as it is and fail on a
perturbed value.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from slicefock import series, spaces  # noqa: E402


def cheap_items(seed):
    """Every layer, cli included, at a fraction of a full cycle's cost."""
    items = list(workloads.pointwise(seed))
    items += [it for it in workloads.plane_sweep(seed)
              if "mono:6" in it.label or "random" in it.label]
    items += [it for it in workloads.algebra_norms(seed)
              if "random" in it.label or "gate" in it.label or it.label.endswith("q^0 q^1")]
    return items


@pytest.fixture(scope="module")
def passes():
    items = cheap_items(5)
    plain = worker.timed_loop(items, 0.0, cycles=1)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = worker.timed_loop(items, 0.0, cycles=1,
                                   wrap=lambda fn, item: tr.span(tracing.ROOT, fn, item))
    finally:
        tr.restore()
    return items, plain, traced, tr


def test_traced_values_bit_identical(passes):
    items, plain, traced, _ = passes
    assert plain["outcome"] == traced["outcome"]
    for item, a, b in zip(items, plain["values"], traced["values"]):
        if a is not None:
            assert worker.bits(a) == worker.bits(b), item.label


def test_no_wrapper_left_bound(passes):
    assert tracing.leftover_wrappers() == []
    assert spaces.eval_on_slice is series.eval_on_slice
    assert not hasattr(spaces.eval_on_slice, tracing.MARK)
    assert not hasattr(series.Quaternion.__mul__, tracing.MARK)


def test_every_layer_traced(passes):
    _, _, _, tr = passes
    metrics = tr.layer_metrics()
    for layer in tracing.LAYERS:
        assert metrics[f"{layer}.calls"] > 0, layer
    assert metrics["series.eval_terms"] >= metrics["series.eval_points"] > 0
    assert metrics["quadrature.grid_builds"] > 0


def test_self_times_partition_root_spans(passes):
    _, _, _, tr = passes
    names, parent, start, end, _ = tr.arrays()
    own = tr.self_times()
    roots = parent < 0
    assert np.all(own >= -1e-6)
    assert float(np.sum(own)) == pytest.approx(float(np.sum((end - start)[roots])), rel=1e-9)


def test_value_check_passes_and_catches_a_perturbation(passes):
    items, plain, _, _ = passes
    report, failed = worker.check_items(items, plain)
    assert failed == 0, [r for r in report if not r["ok"]]
    item = next(it for it in items if it.label.startswith("parseval_norm_sq"))
    vals = item.call()
    vals["value"] *= 1.0 + 1e-9
    assert not all(c.ok for c in item.check(vals))


def test_reference_monomial_norms():
    for k in range(8):
        a = ref.coeffs(f"mono:{k}", k)
        assert ref.parseval_sq(a, 2.0) == pytest.approx(math.factorial(k) / 2.0 ** k)
        assert ref.first_norm2(a, 2.0) ** 2 == pytest.approx(
            math.factorial(k + 1) / 2.0 ** k)
        assert ref.first_norm(a, 2.0, 2.0) == pytest.approx(ref.first_norm2(a, 2.0), rel=1e-12)
