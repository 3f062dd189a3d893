"""Convolution polynomial operators as multiplier actions on Taylor coefficients.

Rotating the argument inside a power q^k multiplies it by a plane rotation:
(q e^{u t})^k = q^k e^{u k t} when u is the axis of q.  Averaging such
rotations against an even probability kernel K therefore scales each
coefficient by the real cosine moment int cos(k t) K(t) dt, so every
operator here is a finite real multiplier sequence rho_k applied as
a_k -> rho_k a_k.  The moments are exact: the kernel's Fourier
coefficients are a self-convolution of the Fejer triangle.  The rotational
integral itself survives only as a test oracle.

Two kernel families are provided: the nonnegative even polynomial kernel
(sin(n t / 2) / sin(t / 2))^(2 r) normalized to unit integral, with r = 1
the classical cesaro-mean (triangular multiplier) case, and its delayed
combination v_k = 2 rho_{2n,k} - rho_{n,k} which reproduces all polynomials
of degree up to n.  The smoothing-difference operator combines rotated
samples with alternating binomial weights and matches moduli of smoothness
of the corresponding order.

The operators are built once per process for their parameters
(:mod:`slicefock.memo`): equal parameters return the same read-only
operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrandOverflowError
from .memo import memoized
from .quadrature import circle_nodes
from .series import SliceSeries, extended

#: Switch to the series form of sin(n t / 2) / sin(t / 2) below this |t|.
_SINGULARITY_GUARD = 1e-6


@dataclass(frozen=True)
class TrigKernel:
    """Even nonnegative trigonometric kernel on [-pi, pi] with unit integral.

    family "fejer" is (sin(n t/2) / sin(t/2))^2 / (2 pi n), of trigonometric
    degree n - 1; family "jackson" is the 2r-th power with a numerically
    normalized constant, of degree r (n - 1).
    """

    family: str
    n: int
    r: int = 1
    lam: float = 0.0

    @property
    def trig_degree(self) -> int:
        return self.r * (self.n - 1)


def _sin_ratio(n: int, t: np.ndarray) -> np.ndarray:
    """sin(n t / 2) / sin(t / 2) with the removable singularity at t = 0
    evaluated by its even series (value n at t = 0)."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = np.abs(t) < _SINGULARITY_GUARD
    ts = t[small] * 0.5
    n2 = float(n * n)
    out[small] = n * (1.0 + (1.0 - n2) * ts ** 2 / 6.0
                      + (n2 * n2 / 120.0 - n2 / 36.0 + 7.0 / 360.0) * ts ** 4)
    tb = t[~small]
    out[~small] = np.sin(0.5 * n * tb) / np.sin(0.5 * tb)
    return out


def fejer_kernel(n: int) -> TrigKernel:
    if n < 1:
        raise ValueError("kernel degree parameter must be at least 1")
    return TrigKernel("fejer", n, 1, 2.0 * math.pi * n)


def normalize_jackson(n: int, r: int) -> float:
    """Normalization constant: the integral of the unnormalized 2r-th power
    kernel, computed on an alias-safe periodic grid."""
    if n < 1 or r < 1:
        raise ValueError("kernel parameters must be at least 1")
    nodes = _moment_nodes(n, r)
    t = circle_nodes(nodes)
    vals = _sin_ratio(n, t) ** (2 * r)
    return float(vals.sum() * (2.0 * math.pi / nodes))


def jackson_kernel(n: int, r: int) -> TrigKernel:
    return TrigKernel("jackson", n, r, normalize_jackson(n, r))


def kernel_eval(kernel: TrigKernel, t) -> np.ndarray | float:
    """Kernel value(s) at t in [-pi, pi]."""
    scalar = np.isscalar(t)
    vals = _sin_ratio(kernel.n, np.atleast_1d(t)) ** (2 * kernel.r) / kernel.lam
    return float(vals[0]) if scalar else vals


def _moment_nodes(n: int, r: int) -> int:
    # alias-safe for the kernel's trigonometric degree r (n - 1)
    return max(8 * r * n, 2 * r * (n - 1) + 17)


def _cosine_moments(n: int, r: int) -> np.ndarray:
    """c_k / c_0 for k = 0 .. r (n - 1), with c_k the Fourier coefficients of
    the unnormalized kernel (sin(n t / 2) / sin(t / 2))^(2 r).

    The r = 1 kernel is the Fejer triangle sum_{|k| < n} (n - |k|) e^{i k t},
    so the c_k are its r-fold self-convolution, exact up to rounding.  Every
    entry is positive, so the convolution sums carry no cancellation; each
    step is rescaled to unit maximum so that no (n, r) overflows.
    """
    if n < 1 or r < 1:
        raise ValueError("kernel parameters must be at least 1")
    tri = (n - np.abs(np.arange(1 - n, n))) / n
    c = np.ones(1)
    for _ in range(r):
        c = np.convolve(c, tri)
        c /= c.max()
    deg = r * (n - 1)
    return c[deg:] / c[deg]


def multipliers(kernel: TrigKernel) -> np.ndarray:
    """Cosine moments rho_k = int cos(k t) K(t) dt for k = 0 .. trig degree.

    Sine moments vanish by evenness; rho_0 = 1 because the kernel is a
    probability density.  The moments are the exact ratios c_k / c_0 of the
    kernel's Fourier coefficients, the r-fold self-convolution of the Fejer
    triangle (:func:`_cosine_moments`), so no quadrature enters; at r = 1
    they are the triangular 1 - k / n.  Applying the sequence to
    coefficients reproduces the rotational-average operator exactly.
    """
    return _cosine_moments(kernel.n, kernel.r)


@dataclass(frozen=True, eq=False)
class MultiplierOperator:
    """Diagonal action a_k -> rho_k a_k on right Taylor coefficients.

    The multipliers are real, so the action commutes with right scalar
    multiplication; entries beyond ``degree_bound`` are zero and the result
    of applying the operator is a polynomial of at most that degree.  An
    operator compares and hashes by identity, so the multiplier images
    built from it are keyed on it.
    """

    rho: np.ndarray
    provenance: str
    degree_bound: int

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.rho, dtype=float))
        arr.setflags(write=False)
        object.__setattr__(self, "rho", arr)


def degree_bound(family: str, n: int, m: int = 0, p: float = 2.0) -> int:
    """Degree of the polynomial the operator of ``family`` at parameter n
    produces: n for the Taylor truncation, n - 1 for the Fejer mean,
    2n - 1 for the delayed mean and r (n - 1) for the smoothing-difference
    operator with r from :func:`jackson_rule_r`.  Computed without building
    the operator, so callers can refuse a size before allocating it."""
    if family == "taylor":
        return n
    if family == "fejer":
        return n - 1
    if family == "vdp":
        return 2 * n - 1
    if family == "jackson":
        return jackson_rule_r(m, p) * (n - 1)
    raise ValueError(f"unknown operator family {family!r}")


def taylor_op(n: int) -> MultiplierOperator:
    """The Taylor truncation to degree n: rho_k = 1 up to n."""
    return _taylor_op(n)


@memoized
def _taylor_op(n: int) -> MultiplierOperator:
    if n < 0:
        raise ValueError("truncation degree must be nonnegative")
    return MultiplierOperator(np.ones(n + 1), f"taylor:{n}", degree_bound("taylor", n))


def fejer_op(n: int) -> MultiplierOperator:
    """The Fejer mean: rho_k = 1 - k / n below n."""
    return _fejer_op(n)


@memoized
def _fejer_op(n: int) -> MultiplierOperator:
    rho = multipliers(fejer_kernel(n))
    return MultiplierOperator(rho, f"fejer:{n}", degree_bound("fejer", n))


def vdp_op(n: int) -> MultiplierOperator:
    """Delayed-mean multipliers v_k = 2 rho_{2n,k} - rho_{n,k}.

    v_k = 1 exactly for k <= n (the triangular moments cancel term by term),
    so polynomials of degree up to n are reproduced coefficientwise; the
    result degree is bounded by 2n - 1.  The leading ones are pinned to
    their closed-form value 1.
    """
    return _vdp_op(n)


@memoized
def _vdp_op(n: int) -> MultiplierOperator:
    big = multipliers(fejer_kernel(2 * n))        # length 2n
    small = multipliers(fejer_kernel(n))          # length n
    v = 2.0 * big
    v[: small.size] -= small
    v[: n + 1] = 1.0
    return MultiplierOperator(v, f"vdp:{n}", degree_bound("vdp", n))


def jackson_rule_r(m: int, p: float) -> int:
    """Smallest integer r with r >= (p (m + 1) + 2) / 2."""
    half = (p * (m + 1) + 2.0) / 2.0
    if not math.isfinite(half):
        raise ValueError(f"the smoothing-difference operator needs a finite "
                         f"p (m + 1), got p = {p!r}, m = {m!r}")
    return math.ceil(half - 1e-12)


def jackson_op(n: int, m: int, p: float) -> MultiplierOperator:
    """Multipliers of the smoothing-difference operator of order m + 1.

    tau_j = -sum_{k=1}^{m+1} (-1)^k C(m+1, k) c_{j k} with
    c_{j k} = int cos(j k t) K_{n,r}(t) dt, the exact moments of
    :func:`multipliers` (zero for j k beyond r (n - 1)), and r from
    :func:`jackson_rule_r`; tau_0 = 1 and tau_j = 0 beyond r (n - 1).
    """
    return _jackson_op(n, m, p)


@memoized
def _jackson_op(n: int, m: int, p: float) -> MultiplierOperator:
    _check_order(m, p)
    r = jackson_rule_r(m, p)
    rho = _cosine_moments(n, r)
    deg = degree_bound("jackson", n, m, p)
    j = np.arange(deg + 1)
    tau = np.zeros(deg + 1)
    for k in range(1, m + 2):
        jk = j[j * k <= deg]                   # c_{jk} vanishes past the degree
        tau[jk] -= (-1.0) ** k * math.comb(m + 1, k) * rho[jk * k]
    return MultiplierOperator(tau, f"jackson:{n}:{m}:r{r}", deg)


def apply(op: MultiplierOperator, f: SliceSeries) -> SliceSeries:
    """Coefficientwise product rho_k a_k; the result is a polynomial of
    degree at most the operator bound.  Commutes with dilation."""
    bound = op.degree_bound
    fe = extended(f, bound) if f.generator is not None else f
    m = min(bound + 1, fe.coeffs.shape[0])
    out = np.zeros((bound + 1, 4))
    out[:m] = op.rho[:m, None] * fe.coeffs[:m]
    return SliceSeries(out)


def rotational_average(kernel: TrigKernel, f: SliceSeries, q):
    """Direct evaluation of the rotational integral
    int f(q e^{u t}) K(t) dt with u the axis of q (test oracle for
    :func:`multipliers`; the multiplier action must agree with it)."""
    from .quaternion import Quaternion, slice_unit
    from .series import eval_on_slice, prepared_for_radius

    nodes = _moment_nodes(kernel.n, kernel.r)
    t = circle_nodes(nodes)
    kv = kernel_eval(kernel, t)
    unit, _ = slice_unit(q)
    theta = math.atan2(q.imag_norm(), q.w)
    z = abs(q) * np.exp(1j * (theta + t))
    fe, _ = prepared_for_radius(f, abs(q))
    vals = eval_on_slice(fe, unit, z, prepare=False)
    comps = (kv * (2.0 * math.pi / nodes)) @ vals
    return Quaternion.from_array(comps)


#: Gauss-Legendre order of each panel of :func:`moment_bound`'s rule.
_PANEL_ORDER = 16


@memoized
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """The ``_PANEL_ORDER``-point Gauss-Legendre nodes and weights on [0, 1]:
    the roots of P_N by Newton's method from cos(pi (k - 1/4) / (N + 1/2)),
    P_N and P_N' by the three-term recurrence.  (numpy's ``leggauss`` takes
    them from a LAPACK eigen-solve, whose first call in a process raises its
    peak memory by about 0.6 MB.)"""
    order = _PANEL_ORDER
    x = np.cos(math.pi * (np.arange(order, 0.0, -1.0) - 0.25) / (order + 0.5))
    for _ in range(6):                  # quadratic from the start: 3 would do
        p0, p1 = np.ones_like(x), x
        for j in range(2, order + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        slope = order * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / slope
    return 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * slope * slope)


def _moment_panels(n: int, r: int) -> np.ndarray:
    """Panel edges of :func:`moment_bound`'s rule in x = n t on [0, n pi]:
    D // 7 + 1 equal panels, D = r (n - 1) the kernel's degree, so that one
    spans at most 3.5 periods of the kernel's top frequency, the first of
    them, of length h, graded at h 8^-j for j = 1 .. ceil(log_8 (h / 2))
    down to a length at most 2.  (x + 1)^s has its branch point at x = -1,
    so it is then analytic inside each panel's Bernstein ellipse of ratio
    2, whatever h."""
    count = r * (n - 1) // 7 + 1
    h = n * math.pi / count
    graded = [h * 0.125 ** j for j in range(math.ceil(math.log(0.5 * h, 8.0)), 0, -1)]
    return np.concatenate(([0.0, *graded], h * np.arange(1.0, count + 1.0)))


def _check_order(m: int, p: float) -> None:
    """Refuse a difference order m < 0 or an exponent p < 1."""
    if m < 0:
        raise ValueError("difference order m must be nonnegative")
    if p < 1.0:
        raise ValueError("the smoothing-difference operator needs p >= 1")


def moment_bound(n: int, m: int, p: float) -> float:
    """int (n |t| + 1)^s K_{n,r}(t) dt, s = (m + 1) p and r from the rule,
    within 1e-12 relative.

    The integrand is even, so the moment is the ratio of the integrals over
    [0, pi] of (n t + 1)^s F(t) and of F(t), F = (sin(n t / 2) / (n sin(t /
    2)))^(2r) <= 1, both by one composite Gauss-Legendre rule in x = n t
    (:func:`_moment_panels`).  Each node's term is formed from its log, s
    log1p(x) + 2r log |F|, and scaled by the largest, so nothing overflows
    on the way; a moment past the float range raises
    :class:`IntegrandOverflowError`.  Finite uniformly in n; swept over n
    it stays within a constant factor, which is what makes the
    smoothing-difference estimate work.
    """
    _check_order(m, p)
    if n < 1:
        raise ValueError("kernel parameters must be at least 1")
    r = jackson_rule_r(m, p)
    edges = _moment_panels(n, r)
    u, w = _panel_rule()
    width = edges[1:] - edges[:-1]
    x = edges[:-1, None] + width[:, None] * u     # (panels, nodes), all > 0
    half = np.sin(np.multiply.outer((0.5, 0.5 / n), x))
    log_f = 2 * r * np.log(np.abs(half[0] / (n * half[1])))
    terms = (m + 1) * p * np.log1p(x) + log_f
    top = terms.max()
    num, den = (np.exp(t) @ w @ width for t in (terms - top, log_f))
    try:
        return math.exp(top + math.log(num) - math.log(den))
    except OverflowError:
        raise IntegrandOverflowError(
            f"moment_bound({n}, {m}, {p}) exceeds the float range") from None
